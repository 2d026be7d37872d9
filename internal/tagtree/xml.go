package tagtree

import (
	"context"

	"repro/internal/htmlparse"
)

// ParseXML builds a tag tree from an XML document (the paper's footnote 1
// generalization). XML normalization is stricter than HTML's: there are no
// void elements, no optional end-tags, and no implied closings — emptiness
// comes only from self-closing tags. Mismatched or orphan end-tags are
// still tolerated (discarded or implied-closed) so imperfect feeds parse.
func ParseXML(doc string) *Tree {
	return mustParse(ParseXMLContext(context.Background(), doc, Limits{}))
}

// ParseXMLContext is ParseXML with cancellation and resource limits, the
// XML counterpart of ParseContext.
func ParseXMLContext(ctx context.Context, doc string, lim Limits) (*Tree, error) {
	return ParseXMLArenaContext(ctx, doc, lim, nil, nil)
}

// NormalizeXML balances an XML token stream: comments, doctypes, and
// processing instructions are discarded; orphan end-tags are dropped; an
// end-tag closes any still-open elements nested inside its match; EOF
// closes everything.
func NormalizeXML(tokens []htmlparse.Token) []htmlparse.Token {
	out, _ := normalizeXMLInto(tokens, make([]htmlparse.Token, 0, len(tokens)), nil)
	return out
}

// normalizeXMLInto is NormalizeXML writing into caller-provided buffers,
// the XML counterpart of normalizeHTMLInto.
func normalizeXMLInto(tokens, out []htmlparse.Token, stack []string) ([]htmlparse.Token, []string) {
	for _, tok := range tokens {
		switch tok.Type {
		case htmlparse.Comment, htmlparse.Doctype:
			continue
		case htmlparse.Text:
			out = append(out, tok)
		case htmlparse.StartTag:
			out = append(out, tok)
			if !tok.SelfClosing {
				stack = append(stack, tok.Name)
			}
		case htmlparse.EndTag:
			match := -1
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i] == tok.Name {
					match = i
					break
				}
			}
			if match < 0 {
				continue
			}
			for len(stack) > match+1 {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				out = append(out, syntheticEnd(top, tok.Pos))
			}
			stack = stack[:len(stack)-1]
			out = append(out, tok)
		}
	}
	end := 0
	if len(tokens) > 0 {
		end = tokens[len(tokens)-1].End
	}
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, syntheticEnd(top, end))
	}
	return out, stack
}
