package htmlparse

import "strings"

// Arena is the tokenizer half of the per-request scratch arena: a reusable
// token slab, a reusable attribute slab, and a tag/attribute-name intern
// table. TokenizeHTML and TokenizeXML fill the slabs in place, so a warm
// arena tokenizes an entire document without allocating.
//
// Ownership rules (see docs/PERFORMANCE.md):
//
//   - The returned tokens, their Attrs windows, and any name or text string
//     they carry are valid only until the arena's next tokenize call. Copy
//     anything that must outlive the request.
//   - Token names and undecoded text are zero-copy views into the input
//     document; the document must stay immutable while results derived from
//     it are alive.
//
// An Arena is not safe for concurrent use. internal/tagtree's Arena embeds
// one and manages pooling; most callers want that.
type Arena struct {
	tokens []Token
	attrs  []Attr
	// names interns lowercased tag and attribute names that needed case
	// work, so warm-path tokenizing of <DIV> or BORDER= costs a map hit
	// instead of an allocation. Interned strings are fresh copies — the
	// table never pins a request document.
	names map[string]string
	lower []byte // lowercase scratch for names that need case folding
	src   string // document being tokenized; set by reset
	visit func(k0, k1, v0, v1 int, hasVal bool)
}

// maxInternedNames bounds the intern table so hostile inputs with endless
// distinct attribute names cannot grow it without limit. Past the bound,
// names that need case work are allocated per token (correct, just slower).
const maxInternedNames = 4096

// maxRetainedTokens / maxRetainedAttrs bound what a pooled arena keeps
// between requests; one pathological document must not pin its peak
// footprint forever.
const (
	maxRetainedTokens = 1 << 16
	maxRetainedAttrs  = 1 << 16
)

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

// reset points the arena at a new document and empties the slabs. Previously
// returned tokens become invalid.
func (a *Arena) reset(src string) {
	a.src = src
	a.tokens = a.tokens[:0]
	a.attrs = a.attrs[:0]
}

// Trim drops slab capacity beyond the retention bounds and clears the
// document reference. tagtree's arena calls this before repooling.
func (a *Arena) Trim() {
	if cap(a.tokens) > maxRetainedTokens {
		a.tokens = nil
	} else {
		clearTokens(a.tokens[:cap(a.tokens)])
		a.tokens = a.tokens[:0]
	}
	if cap(a.attrs) > maxRetainedAttrs {
		a.attrs = nil
	} else {
		attrs := a.attrs[:cap(a.attrs)]
		for i := range attrs {
			attrs[i] = Attr{}
		}
		a.attrs = a.attrs[:0]
	}
	a.src = ""
}

func clearTokens(toks []Token) {
	for i := range toks {
		toks[i] = Token{}
	}
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

// TokenizeHTML scans an HTML document into the arena's slabs. The returned
// slice is the arena's; see the ownership rules on Arena.
//
// Tag and attribute names are lowercased; character data and attribute
// values are entity-decoded; the content of raw-text elements (script,
// style, ...) is one undecoded text token up to the matching end-tag; a '<'
// that does not begin markup is character data.
func (a *Arena) TokenizeHTML(s string) []Token {
	a.reset(s)
	pos := 0
	rawEnd := ""
	for pos < len(s) {
		if rawEnd != "" {
			end := RawTextEnd(s, pos, rawEnd)
			// Raw text is not entity-decoded (scripts may contain '&&').
			a.tokens = append(a.tokens, Token{Type: Text, Data: s[pos:end], Pos: pos, End: end})
			pos = end
			rawEnd = ""
			continue
		}
		if s[pos] == '<' && MarkupStartsAt(s, pos) {
			switch s[pos+1] {
			case '!':
				b0, b1, next, doctype := ScanDeclarationSpans(s, pos)
				typ := Comment
				if doctype {
					typ = Doctype
				}
				a.tokens = append(a.tokens, Token{Type: typ, Data: s[b0:b1], Pos: pos, End: next})
				pos = next
			case '?':
				b0, b1, next := ScanPISpans(s, pos)
				a.tokens = append(a.tokens, Token{Type: Comment, Data: s[b0:b1], Pos: pos, End: next})
				pos = next
			case '/':
				i := NameEnd(s, pos+2)
				name := a.lowerIntern(s[pos+2 : i])
				end := indexFrom(s, i, '>')
				a.tokens = append(a.tokens, Token{Type: EndTag, Name: name, Pos: pos, End: end})
				pos = end
			default:
				var tok Token
				tok, pos = a.scanStartTag(s, pos, false)
				if IsRawText(tok.Name) && !tok.SelfClosing {
					rawEnd = tok.Name
				}
			}
			continue
		}
		pos = a.scanText(s, pos)
	}
	return a.tokens
}

// TokenizeXML scans an XML document into the arena's slabs. It differs from
// TokenizeHTML in the ways the paper's footnote 1 ("most of this work should
// carry over directly to other document type definitions, such as XML")
// requires:
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
	a.reset(s)
	pos := 0
	for pos < len(s) {
		if s[pos] == '<' && MarkupStartsAt(s, pos) {
			if strings.HasPrefix(s[pos:], "<![CDATA[") {
				body := pos + len("<![CDATA[")
				end := strings.Index(s[body:], "]]>")
				if end < 0 {
					// CDATA content is literal: no entity decoding.
					a.tokens = append(a.tokens, Token{Type: Text, Data: s[body:], Pos: pos, End: len(s)})
					pos = len(s)
					continue
				}
				stop := body + end + 3
				a.tokens = append(a.tokens, Token{Type: Text, Data: s[body : body+end], Pos: pos, End: stop})
				pos = stop
				continue
			}
			switch s[pos+1] {
			case '!':
				b0, b1, next, doctype := ScanDeclarationSpans(s, pos)
				typ := Comment
				if doctype {
					typ = Doctype
				}
				a.tokens = append(a.tokens, Token{Type: typ, Data: s[b0:b1], Pos: pos, End: next})
				pos = next
			case '?':
				b0, b1, next := ScanPISpans(s, pos)
				a.tokens = append(a.tokens, Token{Type: Comment, Data: s[b0:b1], Pos: pos, End: next})
				pos = next
			case '/':
				i := NameEnd(s, pos+2)
				name := s[pos+2 : i] // case preserved
				end := indexFrom(s, i, '>')
				a.tokens = append(a.tokens, Token{Type: EndTag, Name: name, Pos: pos, End: end})
				pos = end
			default:
				_, pos = a.scanStartTag(s, pos, true)
			}
			continue
		}
		pos = a.scanText(s, pos)
	}
	return a.tokens
}

// scanStartTag scans <name attr=value ...> at pos into the slabs and returns
// the token plus the index just past it. xmlNames preserves the element
// name's case (attribute keys are lowercased in both modes).
func (a *Arena) scanStartTag(s string, pos int, xmlNames bool) (Token, int) {
	i := NameEnd(s, pos+1)
	var name string
	if xmlNames {
		name = s[pos+1 : i]
	} else {
		name = a.lowerIntern(s[pos+1 : i])
	}
	attrStart := len(a.attrs)
	next, selfClosing := ScanTagAttrs(s, i, a.visit)
	tok := Token{Type: StartTag, Name: name, Pos: pos, End: next, SelfClosing: selfClosing}
	if n := len(a.attrs); n > attrStart {
		tok.Attrs = a.attrs[attrStart:n:n]
	}
	a.tokens = append(a.tokens, tok)
	return tok, next
}

// scanText scans character data starting at pos (always consuming at least
// one byte, since the first byte may be a non-markup '<'), appends the
// decoded token, and returns the index just past it.
func (a *Arena) scanText(s string, pos int) int {
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
	a.tokens = append(a.tokens, Token{Type: Text, Data: DecodeEntities(s[pos:i]), Pos: pos, End: i})
	return i
}
