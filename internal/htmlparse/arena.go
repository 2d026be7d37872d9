package htmlparse

import "strings"

// Arena is the tokenizer half of the per-request scratch arena: a streaming
// byte scanner over one document, a reusable attribute slab, a
// tag/attribute-name intern table, and the document's atom table. Reset
// points it at a document and Next hands out one token at a time, so a
// warm arena scans an entire document without allocating and without
// materializing a token slice.
//
// Ownership rules (see docs/PERFORMANCE.md):
//
//   - The token Next returns is the arena's own scratch: it is overwritten
//     by the next call. Its Attrs window, and any name or text string it
//     carries, stay valid until the arena's next Reset.
//   - Token names and undecoded text are zero-copy views into the input
//     document; the document must stay immutable while results derived from
//     it are alive.
//   - A token's atom is numbered per document: it means the same name only
//     until the arena's next Reset.
//
// An Arena is not safe for concurrent use. internal/tagtree's Arena embeds
// one and manages pooling; most callers want that.
type Arena struct {
	attrs []Attr
	// names interns lowercased tag and attribute names that needed case
	// work, so warm-path tokenizing of <DIV> or BORDER= costs a map hit
	// instead of an allocation. Interned strings are fresh copies — the
	// table never pins a request document.
	names map[string]string
	lower []byte // lowercase scratch for names that need case folding
	visit func(k0, k1, v0, v1 int, hasVal bool)
	// atoms numbers the document's tag names outside the built-in table.
	atoms AtomTable

	// Scan state, set by Reset.
	src    string // document being tokenized
	pos    int    // next unscanned byte
	xml    bool   // XML grammar (see TokenizeXML)
	rawEnd string // name of the open raw-text element, HTML only
	tok    Token  // the token Next returned last
}

// maxInternedNames bounds the intern table so hostile inputs with endless
// distinct attribute names cannot grow it without limit. Past the bound,
// names that need case work are allocated per token (correct, just slower).
const maxInternedNames = 4096

// maxRetainedAttrs bounds what a pooled arena keeps between requests; one
// pathological document must not pin its peak footprint forever.
const maxRetainedAttrs = 1 << 16

// NewArena returns an empty tokenizer arena.
func NewArena() *Arena {
	a := &Arena{names: make(map[string]string)}
	a.visit = a.visitAttr
	return a
}

// Tokenize scans a whole HTML document into tokens on a fresh arena, so the
// result has ordinary heap lifetime.
func Tokenize(input string) []Token {
	return NewArena().TokenizeHTML(input)
}

// TokenizeXML is Tokenize with the XML grammar of Arena.TokenizeXML.
func TokenizeXML(input string) []Token {
	return NewArena().TokenizeXML(input)
}

// TokenizeHTML collects every token Next yields for an HTML document into a
// new slice. The tokens' Attrs windows live in the arena's attribute slab;
// see the ownership rules on Arena.
//
// Tag and attribute names are lowercased; character data and attribute
// values are entity-decoded; the content of raw-text elements (script,
// style, ...) is one undecoded text token up to the matching end-tag; a '<'
// that does not begin markup is character data.
func (a *Arena) TokenizeHTML(s string) []Token {
	return a.collect(s, false)
}

// TokenizeXML is TokenizeHTML with the XML grammar the paper's footnote 1
// ("most of this work should carry over directly to other document type
// definitions, such as XML") requires:
//
//   - element names keep their case (XML is case-sensitive); attribute
//     keys are still normalized to lowercase,
//   - there are no void elements or raw-text elements — emptiness comes
//     only from explicit self-closing tags (<item/>),
//   - CDATA sections become literal (undecoded) text tokens,
//   - processing instructions (<?xml ...?>) become comments.
//
// Like TokenizeHTML it is tolerant: malformed constructs degrade to text
// rather than failing, so the record-boundary pipeline can run over
// imperfect feeds.
func (a *Arena) TokenizeXML(s string) []Token {
	return a.collect(s, true)
}

func (a *Arena) collect(s string, xml bool) []Token {
	var toks []Token
	a.Reset(s, xml)
	for tok := a.Next(); tok != nil; tok = a.Next() {
		toks = append(toks, *tok)
	}
	return toks
}

// Reset points the arena at a new document, in the XML grammar when xml is
// set, and empties the attribute slab. Tokens from the previous document
// become invalid.
func (a *Arena) Reset(src string, xml bool) {
	a.src, a.pos, a.xml, a.rawEnd = src, 0, xml, ""
	a.attrs = a.attrs[:0]
	a.atoms.Reset()
}

// Trim drops slab capacity beyond the retention bound and clears every
// document reference. tagtree's arena calls this before repooling.
func (a *Arena) Trim() {
	if cap(a.attrs) > maxRetainedAttrs {
		a.attrs = nil
	} else {
		clear(a.attrs[:cap(a.attrs)])
		a.attrs = a.attrs[:0]
	}
	a.src, a.pos, a.rawEnd = "", 0, ""
	a.tok = Token{}
	a.atoms.Reset()
}

// Next scans the next token of the document Reset named and returns it, or
// nil at the end of the document. The returned token is overwritten by the
// next call.
func (a *Arena) Next() *Token {
	s, pos := a.src, a.pos
	if pos >= len(s) {
		return nil
	}
	if a.rawEnd != "" {
		end := RawTextEnd(s, pos, a.rawEnd)
		a.pos, a.rawEnd = end, ""
		// Raw text is not entity-decoded (scripts may contain '&&').
		return a.set(Text, "", s[pos:end], pos, end)
	}
	if s[pos] != '<' || !MarkupStartsAt(s, pos) {
		return a.scanText(s, pos)
	}
	if a.xml && strings.HasPrefix(s[pos:], "<![CDATA[") {
		// CDATA content is literal: no entity decoding.
		body := pos + len("<![CDATA[")
		end := strings.Index(s[body:], "]]>")
		if end < 0 {
			a.pos = len(s)
			return a.set(Text, "", s[body:], pos, len(s))
		}
		a.pos = body + end + 3
		return a.set(Text, "", s[body:body+end], pos, a.pos)
	}
	switch s[pos+1] {
	case '!':
		b0, b1, next, doctype := ScanDeclarationSpans(s, pos)
		typ := Comment
		if doctype {
			typ = Doctype
		}
		a.pos = next
		return a.set(typ, "", s[b0:b1], pos, next)
	case '?':
		b0, b1, next := ScanPISpans(s, pos)
		a.pos = next
		return a.set(Comment, "", s[b0:b1], pos, next)
	case '/':
		i := NameEnd(s, pos+2)
		name, atom := a.tagName(s[pos+2:i], false)
		a.pos = indexFrom(s, i, '>')
		t := a.set(EndTag, name, "", pos, a.pos)
		t.Atom = atom
		return t
	}
	t := a.scanStartTag(s, pos)
	if !a.xml && !t.SelfClosing && t.Atom.RawText() {
		a.rawEnd = t.Name
	}
	return t
}

// tagName returns a raw tag name's token name and atom: HTML lowercases
// the name (a built-in name becomes the table's own string), XML keeps
// its case. intern numbers a name seen for the first time; without it
// such a name gets the zero Atom — an end-tag naming no element seen so
// far can close nothing, so it needs no atom.
func (a *Arena) tagName(raw string, intern bool) (string, Atom) {
	if !a.xml {
		if atom := LookupFold(raw); atom != 0 {
			return atom.String(), atom
		}
		raw = a.lowerIntern(raw)
	}
	if intern {
		return raw, a.atoms.Intern(raw)
	}
	return raw, a.atoms.Find(raw)
}

// set overwrites the current token field by field and returns it. (A
// composite-literal assignment builds the whole token aside and copies it.)
func (a *Arena) set(typ TokenType, name, data string, pos, end int) *Token {
	t := &a.tok
	t.Type, t.Name, t.Attrs, t.Data, t.Atom = typ, name, nil, data, 0
	t.Pos, t.End, t.SelfClosing, t.Synthetic = pos, end, false, false
	return t
}

// visitAttr is the ScanTagAttrs callback: it interns the key, lazily decodes
// the value, and appends to the attribute slab. Bound once in NewArena so
// the warm path never allocates a closure.
func (a *Arena) visitAttr(k0, k1, v0, v1 int, _ bool) {
	a.attrs = append(a.attrs, Attr{
		Key:   a.lowerIntern(a.src[k0:k1]),
		Value: DecodeEntities(a.src[v0:v1]),
	})
}

// lowerIntern returns the lowercase form of s with the same bytes
// strings.ToLower would produce, without allocating on the warm path:
// already-lowercase ASCII names are returned as zero-copy views, names that
// need folding come from the intern table.
func (a *Arena) lowerIntern(s string) string {
	upper := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 0x80 {
			// Non-ASCII attribute keys take strings.ToLower's Unicode-aware
			// lowering.
			return a.intern(strings.ToLower(s))
		}
		if c >= 'A' && c <= 'Z' {
			upper = true
		}
	}
	if !upper {
		return s
	}
	a.lower = a.lower[:0]
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		a.lower = append(a.lower, c)
	}
	if v, ok := a.names[string(a.lower)]; ok { // no-alloc map probe
		return v
	}
	return a.intern(string(a.lower))
}

// intern stores (and returns) a canonical copy of name. name must not alias
// the request document.
func (a *Arena) intern(name string) string {
	if v, ok := a.names[name]; ok {
		return v
	}
	if len(a.names) < maxInternedNames {
		a.names[name] = name
	}
	return name
}

// scanStartTag scans <name attr=value ...> at pos into the current token
// and the attribute slab, and stamps the name's atom. XML keeps the element
// name's case (attribute keys are lowercased in both grammars).
func (a *Arena) scanStartTag(s string, pos int) *Token {
	i := NameEnd(s, pos+1)
	name, atom := a.tagName(s[pos+1:i], true)
	attrStart := len(a.attrs)
	next, selfClosing := ScanTagAttrs(s, i, a.visit)
	a.pos = next
	t := a.set(StartTag, name, "", pos, next)
	t.Atom, t.SelfClosing = atom, selfClosing
	if n := len(a.attrs); n > attrStart {
		t.Attrs = a.attrs[attrStart:n:n]
	}
	return t
}

// scanText scans character data starting at pos (always consuming at least
// one byte, since the first byte may be a non-markup '<') into the current
// token, decoded.
func (a *Arena) scanText(s string, pos int) *Token {
	i := pos + 1
	for i < len(s) {
		j := strings.IndexByte(s[i:], '<')
		if j < 0 {
			i = len(s)
			break
		}
		i += j
		if MarkupStartsAt(s, i) {
			break
		}
		i++
	}
	a.pos = i
	return a.set(Text, "", DecodeEntities(s[pos:i]), pos, i)
}
