// Package htmlparse provides a small, dependency-free HTML tokenizer tuned
// for the record-boundary discovery pipeline.
//
// It is not a full HTML5 parser: it produces a flat stream of tokens
// (start-tags, end-tags, text, comments, doctypes) with byte positions, from
// which the tagtree package builds the paper's tag tree. The tokenizer is
// deliberately tolerant — 1998-era Web pages are full of unclosed tags,
// uppercase names, bare ampersands, and unquoted attribute values — and it
// never fails: any malformed construct degrades to text.
package htmlparse

import "strings"

// TokenType identifies the kind of a lexical token.
type TokenType int

// Token kinds produced by the tokenizer.
const (
	// StartTag is an opening tag such as <td> or <img src="x">.
	StartTag TokenType = iota
	// EndTag is a closing tag such as </td>.
	EndTag
	// Text is a run of character data between tags, entity-decoded.
	Text
	// Comment is an HTML comment (<!-- ... -->) or other <! construct.
	// The paper discards these; the tagtree package drops them.
	Comment
	// Doctype is a <!DOCTYPE ...> declaration.
	Doctype
)

// String returns a human-readable name for the token type.
func (t TokenType) String() string {
	switch t {
	case StartTag:
		return "StartTag"
	case EndTag:
		return "EndTag"
	case Text:
		return "Text"
	case Comment:
		return "Comment"
	case Doctype:
		return "Doctype"
	default:
		return "Unknown"
	}
}

// Attr is a single name/value attribute on a start-tag. Value is empty for
// boolean attributes (<td nowrap>).
type Attr struct {
	Key   string
	Value string
}

// Token is one lexical unit of an HTML document.
type Token struct {
	Type TokenType
	// Name is the lowercased tag name for StartTag and EndTag tokens.
	Name string
	// Atom is Name's atom. The tokenizer stamps one on every start-tag,
	// and on every end-tag whose name is built in or appeared on an
	// earlier start-tag; any other end-tag, like a token built by hand,
	// carries the zero Atom.
	Atom Atom
	// Attrs holds the attributes of a StartTag in document order.
	Attrs []Attr
	// Data is the entity-decoded character data for Text tokens, and the
	// raw interior for Comment and Doctype tokens.
	Data string
	// Pos and End delimit the token's byte range in the original input.
	Pos, End int
	// SelfClosing reports a trailing slash on a start-tag (<br/>).
	SelfClosing bool
	// Synthetic marks tokens inserted by downstream normalization (the
	// paper's "insert missing end-tags" step), which have no byte range of
	// their own; Pos/End give the insertion point.
	Synthetic bool
}

// Attr returns the value of the named attribute and whether it is present.
// The lookup is case-insensitive on the attribute key.
func (t *Token) Attr(key string) (string, bool) {
	for _, a := range t.Attrs {
		if strings.EqualFold(a.Key, key) {
			return a.Value, true
		}
	}
	return "", false
}
