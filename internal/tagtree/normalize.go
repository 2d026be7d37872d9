// Package tagtree implements the paper's Tag-Tree Construction algorithm
// (Appendix A) and the record-group location heuristics of Section 3:
//
//  1. Normalize the raw token stream: discard "useless" tags (comments and
//     end-tags with no corresponding start-tag) and insert every "missing"
//     end-tag, yielding a balanced tag sequence.
//  2. Build the tag tree: one node per region, each node carrying the plain
//     text that lies directly inside its region.
//  3. Locate the highest-fan-out subtree — conjectured to contain the
//     records of interest — and extract the candidate separator tags (tags
//     whose appearance count is at least 10% of the tags in that subtree).
package tagtree

import (
	"repro/internal/htmlparse"
)

// autoClose maps an arriving start-tag name to the set of open tag names it
// implicitly closes when one of them is the innermost open element. This
// encodes the HTML 3.2/4.0 optional-end-tag rules that 1998-era documents
// rely on (<li> items, <p> runs, table cells without </td>). It realizes the
// paper's rule that a region with no end-tag ends "just before the next tag"
// for the tags where that behaviour is standard.
var autoClose = map[string]map[string]bool{
	"li":       {"li": true},
	"p":        {"p": true},
	"dt":       {"dt": true, "dd": true},
	"dd":       {"dt": true, "dd": true},
	"option":   {"option": true},
	"tr":       {"td": true, "th": true, "tr": true},
	"td":       {"td": true, "th": true},
	"th":       {"td": true, "th": true},
	"thead":    {"td": true, "th": true, "tr": true},
	"tbody":    {"td": true, "th": true, "tr": true, "thead": true},
	"tfoot":    {"td": true, "th": true, "tr": true, "tbody": true},
	"colgroup": {"colgroup": true},
}

// tableScoped lists ancestors that stop the implied-close search: an
// arriving <tr> must not close a <td> of an *outer* table.
var tableScoped = map[string]bool{"table": true}

// Normalize converts a raw token stream into a balanced one, per Appendix A
// step 2: comments, doctypes, and orphan end-tags are discarded; missing
// end-tags are inserted (marked Synthetic). Void elements (br, hr, img, ...)
// are emitted as self-contained start-tags with no end-tag. The returned
// stream contains only StartTag, EndTag, and Text tokens, and every non-void
// StartTag has exactly one matching EndTag.
func Normalize(tokens []htmlparse.Token) []htmlparse.Token {
	out, _ := normalizeHTMLInto(tokens, make([]htmlparse.Token, 0, normCap(tokens)), nil)
	return out
}

// syntheticEnd is the end-tag Normalize inserts for a missing close.
func syntheticEnd(name string, pos int) htmlparse.Token {
	return htmlparse.Token{
		Type: htmlparse.EndTag, Name: name,
		Pos: pos, End: pos, Synthetic: true,
	}
}

// normalizeHTMLInto is Normalize writing into caller-provided buffers (both
// may carry reusable capacity; the arena hot path passes its slabs). It
// returns the filled stream and the (emptied) stack so callers can retain
// their grown capacity. No closures, so a warm caller pays zero allocations.
func normalizeHTMLInto(tokens, out []htmlparse.Token, stack []string) ([]htmlparse.Token, []string) {
	for _, tok := range tokens {
		switch tok.Type {
		case htmlparse.Comment, htmlparse.Doctype:
			// "Useless" tags: discarded entirely.
			continue

		case htmlparse.Text:
			out = append(out, tok)

		case htmlparse.StartTag:
			if htmlparse.IsVoid(tok.Name) {
				t := tok
				t.SelfClosing = true
				out = append(out, t)
				continue
			}
			// Optional-end-tag rule: the arriving tag may implicitly close
			// open elements (e.g. a new <li> closes the previous <li>).
			if closes := autoClose[tok.Name]; closes != nil {
				for len(stack) > 0 {
					top := stack[len(stack)-1]
					if !closes[top] || tableScoped[top] {
						break
					}
					stack = stack[:len(stack)-1]
					out = append(out, syntheticEnd(top, tok.Pos))
				}
			}
			if tok.SelfClosing {
				out = append(out, tok)
				continue
			}
			stack = append(stack, tok.Name)
			out = append(out, tok)

		case htmlparse.EndTag:
			if htmlparse.IsVoid(tok.Name) {
				continue // </br> and friends: orphan by definition.
			}
			// Find the matching open start-tag, if any.
			match := -1
			for i := len(stack) - 1; i >= 0; i-- {
				if stack[i] == tok.Name {
					match = i
					break
				}
			}
			if match < 0 {
				continue // end-tag with no corresponding start-tag: useless.
			}
			// Insert missing end-tags for everything opened above the match.
			for len(stack) > match+1 {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				out = append(out, syntheticEnd(top, tok.Pos))
			}
			stack = stack[:len(stack)-1]
			out = append(out, tok)
		}
	}
	// EOF closes everything still open.
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
