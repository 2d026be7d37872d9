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
//
// Steps 1 and 2 run as one streaming pass: each token the byte scanner
// produces goes through the normalizer straight into the tree builder.
package tagtree

import (
	"repro/internal/htmlparse"
)

// ImpliedClose reports whether an arriving start-tag implicitly closes the
// innermost open element. This encodes the HTML 3.2/4.0 optional-end-tag
// rules that 1998-era documents rely on (<li> items, <p> runs, table cells
// without </td>). It realizes the paper's rule that a region with no end-tag
// ends "just before the next tag" for the tags where that behaviour is
// standard. No rule closes a <table>, so the implied-close search stops
// there: an arriving <tr> never closes a <td> of an *outer* table. A switch
// rather than a map: it runs for every start-tag.
func ImpliedClose(arriving, open string) bool {
	switch arriving {
	case "li", "p", "option", "colgroup":
		return open == arriving
	case "dt", "dd":
		return open == "dt" || open == "dd"
	case "td", "th":
		return open == "td" || open == "th"
	case "tr", "thead":
		return open == "td" || open == "th" || open == "tr"
	case "tbody":
		return open == "td" || open == "th" || open == "tr" || open == "thead"
	case "tfoot":
		return open == "td" || open == "th" || open == "tr" || open == "tbody"
	}
	return false
}

// tokenSink receives a normalizer's balanced token stream. leaf marks a
// start-tag that gets no end-tag (a void element or an explicit
// self-closing tag). tok is the caller's scratch: a sink copies what it
// keeps. An error stops the stream.
type tokenSink interface {
	emit(tok *htmlparse.Token, leaf bool) error
}

// normalizer balances a raw token stream one token at a time, per
// Appendix A step 2: comments, doctypes, and orphan end-tags are
// discarded; missing end-tags are inserted (marked Synthetic). In HTML mode
// void elements (br, hr, img, ...) are leaves and the optional-end-tag
// rules of ImpliedClose apply; in XML mode only explicit self-closing tags
// are leaves and nothing closes implicitly.
type normalizer struct {
	xml   bool
	stack []string        // open element names, innermost last
	end   int             // End of the last raw token: where EOF closes land
	synth htmlparse.Token // scratch for inserted end-tags
}

// reset empties the normalizer for a new stream, keeping the stack's
// capacity.
func (n *normalizer) reset(xml bool) {
	n.xml, n.stack, n.end = xml, n.stack[:0], 0
}

// push feeds one raw token, emitting its balanced consequences to out.
func (n *normalizer) push(tok *htmlparse.Token, out tokenSink) error {
	n.end = tok.End
	switch tok.Type {
	case htmlparse.Text:
		return out.emit(tok, false)

	case htmlparse.StartTag:
		if n.xml {
			if !tok.SelfClosing {
				n.stack = append(n.stack, tok.Name)
			}
			return out.emit(tok, tok.SelfClosing)
		}
		if htmlparse.IsVoid(tok.Name) {
			return out.emit(tok, true)
		}
		// Optional-end-tag rule: the arriving tag may implicitly close
		// open elements (e.g. a new <li> closes the previous <li>).
		for len(n.stack) > 0 && ImpliedClose(tok.Name, n.stack[len(n.stack)-1]) {
			if err := n.pop(tok.Pos, out); err != nil {
				return err
			}
		}
		if !tok.SelfClosing {
			n.stack = append(n.stack, tok.Name)
		}
		return out.emit(tok, tok.SelfClosing)

	case htmlparse.EndTag:
		if !n.xml && htmlparse.IsVoid(tok.Name) {
			return nil // </br> and friends: orphan by definition.
		}
		// Find the matching open start-tag, if any.
		match := -1
		for i := len(n.stack) - 1; i >= 0; i-- {
			if n.stack[i] == tok.Name {
				match = i
				break
			}
		}
		if match < 0 {
			return nil // end-tag with no corresponding start-tag: useless.
		}
		// Insert missing end-tags for everything opened above the match.
		for len(n.stack) > match+1 {
			if err := n.pop(tok.Pos, out); err != nil {
				return err
			}
		}
		n.stack = n.stack[:match]
		return out.emit(tok, false)
	}
	// Comments and doctypes are "useless" tags: discarded entirely.
	return nil
}

// finish closes everything still open at EOF.
func (n *normalizer) finish(out tokenSink) error {
	for len(n.stack) > 0 {
		if err := n.pop(n.end, out); err != nil {
			return err
		}
	}
	return nil
}

// pop closes the innermost open element with an end-tag inserted at pos.
func (n *normalizer) pop(pos int, out tokenSink) error {
	top := n.stack[len(n.stack)-1]
	n.stack = n.stack[:len(n.stack)-1]
	n.synth = htmlparse.Token{Type: htmlparse.EndTag, Name: top, Pos: pos, End: pos, Synthetic: true}
	return out.emit(&n.synth, false)
}

// tokenSlice is the sink behind Normalize and NormalizeXML: it collects the
// balanced stream, with SelfClosing set exactly on leaves.
type tokenSlice []htmlparse.Token

func (s *tokenSlice) emit(tok *htmlparse.Token, leaf bool) error {
	t := *tok
	if t.Type == htmlparse.StartTag {
		t.SelfClosing = leaf
	}
	*s = append(*s, t)
	return nil
}

// normalize runs tokens through a normalizer in the given mode.
func normalize(tokens []htmlparse.Token, xml bool) []htmlparse.Token {
	n := normalizer{xml: xml}
	out := make(tokenSlice, 0, len(tokens)+len(tokens)/4)
	for i := range tokens {
		_ = n.push(&tokens[i], &out) // tokenSlice never fails
	}
	_ = n.finish(&out)
	return out
}

// Normalize converts a raw token stream into a balanced one, per Appendix A
// step 2: comments, doctypes, and orphan end-tags are discarded; missing
// end-tags are inserted (marked Synthetic). Void elements (br, hr, img, ...)
// are emitted as self-contained start-tags with no end-tag. The returned
// stream contains only StartTag, EndTag, and Text tokens, and every non-void
// StartTag has exactly one matching EndTag. It is the streaming normalizer
// the parser runs, collected into a slice.
func Normalize(tokens []htmlparse.Token) []htmlparse.Token {
	return normalize(tokens, false)
}
