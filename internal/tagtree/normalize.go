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
// rules of htmlparse.ImpliedClose apply; in XML mode only explicit
// self-closing tags are leaves and nothing closes implicitly. The HTML
// rules are read by atom from htmlparse's tag-rule table.
type normalizer struct {
	xml   bool
	stack []openTag       // open elements, innermost last
	end   int             // End of the last raw token: where EOF closes land
	synth htmlparse.Token // scratch for inserted end-tags
}

// openTag is one open element on the normalizer's stack.
type openTag struct {
	name string
	atom htmlparse.Atom
}

// atomOf returns a token's atom, resolving a token built by hand (no
// atom) by its name.
func atomOf(tok *htmlparse.Token) htmlparse.Atom {
	if tok.Atom != 0 {
		return tok.Atom
	}
	return htmlparse.Lookup(tok.Name)
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
		atom := atomOf(tok)
		if n.xml {
			if !tok.SelfClosing {
				n.stack = append(n.stack, openTag{tok.Name, atom})
			}
			return out.emit(tok, tok.SelfClosing)
		}
		if atom.Void() {
			return out.emit(tok, true)
		}
		// Optional-end-tag rule: the arriving tag may implicitly close
		// open elements (e.g. a new <li> closes the previous <li>).
		for len(n.stack) > 0 && htmlparse.ImpliedClose(atom, n.stack[len(n.stack)-1].atom) {
			if err := n.pop(tok.Pos, out); err != nil {
				return err
			}
		}
		if !tok.SelfClosing {
			n.stack = append(n.stack, openTag{tok.Name, atom})
		}
		return out.emit(tok, tok.SelfClosing)

	case htmlparse.EndTag:
		if !n.xml && atomOf(tok).Void() {
			return nil // </br> and friends: orphan by definition.
		}
		// Find the matching open start-tag, if any.
		match := -1
		for i := len(n.stack) - 1; i >= 0; i-- {
			if n.stack[i].name == tok.Name {
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
	n.synth = htmlparse.Token{Type: htmlparse.EndTag, Name: top.name, Atom: top.atom, Pos: pos, End: pos, Synthetic: true}
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
