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
// closes everything. It is the parser's streaming normalizer in XML mode,
// collected into a slice.
func NormalizeXML(tokens []htmlparse.Token) []htmlparse.Token {
	return normalize(tokens, true)
}
