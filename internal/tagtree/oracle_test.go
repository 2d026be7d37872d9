package tagtree

import (
	"context"
	"strings"

	"repro/internal/htmlparse"
)

// This file is the test-only reference parser that FuzzByteVsStringParse
// and the arena tests hold production's parser to: a string tokenizer for
// HTML and for XML, and a one-pass tree builder that allocates every node
// on its own. It restates the grammar independently of htmlparse's byte
// scan core (it shares only entity decoding, the void and raw-text tables,
// the raw-text end search, and Normalize/NormalizeXML) and builds without
// the arena's node blocks and carved windows, so a divergence in either
// half of the production parser shows up as a tree difference.

// refParseContext is the reference for ParseContext / ParseArenaContext.
func refParseContext(ctx context.Context, doc string, lim Limits) (*Tree, error) {
	if err := htmlparse.CheckSize(doc, lim.MaxBytes); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return refBuild(ctx, Normalize(stringTokenize(doc)), htmlparse.IsVoid, lim)
}

// refParseXMLContext is the reference for ParseXMLContext /
// ParseXMLArenaContext.
func refParseXMLContext(ctx context.Context, doc string, lim Limits) (*Tree, error) {
	if err := htmlparse.CheckSize(doc, lim.MaxBytes); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	norm := NormalizeXML(stringTokenizeXML(doc))
	return refBuild(ctx, norm, func(string) bool { return false }, lim)
}

// refBuild constructs a tree from an already-balanced token stream.
// isVoid reports element names that never have end-tags (HTML's void set;
// always false for XML, where only explicit self-closing counts). The loop
// honors ctx and enforces lim's depth and node bounds as it goes, so a
// pathological document fails fast instead of exhausting memory first.
func refBuild(ctx context.Context, norm []htmlparse.Token, isVoid func(string) bool, lim Limits) (*Tree, error) {
	t := &Tree{Root: &Node{Name: "#document"}}
	cur := t.Root
	depth, nodes := 0, 0
	for i, tok := range norm {
		if i%buildCheckEvery == buildCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		switch tok.Type {
		case htmlparse.Text:
			if tok.Data == "" {
				continue
			}
			cur.Chunks = append(cur.Chunks, Chunk{Text: tok.Data, Pos: tok.Pos})
			t.Events = append(t.Events, Event{Kind: EventText, Text: tok.Data, Pos: tok.Pos})

		case htmlparse.StartTag:
			nodes++
			if lim.MaxNodes > 0 && nodes > lim.MaxNodes {
				return nil, errTooManyNodes(lim.MaxNodes)
			}
			n := &Node{
				Name:       tok.Name,
				Attrs:      tok.Attrs,
				Parent:     cur,
				StartPos:   tok.Pos,
				EndPos:     tok.End,
				firstEvent: len(t.Events),
			}
			cur.Children = append(cur.Children, n)
			t.Events = append(t.Events, Event{Kind: EventStart, Node: n, Pos: tok.Pos})
			if tok.SelfClosing || isVoid(tok.Name) {
				n.lastEvent = len(t.Events)
				continue
			}
			depth++
			if lim.MaxDepth > 0 && depth > lim.MaxDepth {
				return nil, errTooDeep(lim.MaxDepth)
			}
			cur = n

		case htmlparse.EndTag:
			// Normalize guarantees balance, so this matches cur.
			if cur == t.Root {
				continue
			}
			t.Events = append(t.Events, Event{Kind: EventEnd, Node: cur, Pos: tok.Pos})
			cur.EndPos = tok.End
			cur.lastEvent = len(t.Events)
			cur = cur.Parent
			depth--
		}
	}
	t.Root.firstEvent = 0
	t.Root.lastEvent = len(t.Events)
	if n := len(norm); n > 0 {
		t.Root.EndPos = norm[n-1].End
	}
	countSubtreeTags(t.Root)
	return t, nil
}

// countSubtreeTags fills in subtreeTags bottom-up.
func countSubtreeTags(n *Node) int {
	total := 0
	for _, c := range n.Children {
		total += 1 + countSubtreeTags(c)
	}
	n.subtreeTags = total
	return total
}

// stringTokenizer is the reference HTML tokenizer. Create one with
// newStringTokenizer and call Next until it returns ok == false.
type stringTokenizer struct {
	input string
	pos   int
	// rawEnd, when non-empty, is the element name whose raw-text content we
	// are inside (script, style, ...); the next token is everything up to
	// its end-tag.
	rawEnd string
}

// newStringTokenizer returns a stringTokenizer over the given document.
func newStringTokenizer(input string) *stringTokenizer {
	return &stringTokenizer{input: input}
}

// stringTokenize scans the whole document and returns its tokens.
func stringTokenize(input string) []htmlparse.Token {
	tz := newStringTokenizer(input)
	var out []htmlparse.Token
	for {
		tok, ok := tz.Next()
		if !ok {
			return out
		}
		out = append(out, tok)
	}
}

// Next returns the next token. ok is false at end of input.
func (z *stringTokenizer) Next() (tok htmlparse.Token, ok bool) {
	if z.pos >= len(z.input) {
		return htmlparse.Token{}, false
	}
	if z.rawEnd != "" {
		return z.scanRawText(), true
	}
	if z.input[z.pos] == '<' {
		if t, ok := z.scanMarkup(); ok {
			return t, true
		}
		// A lone '<' that does not begin real markup is character data.
		return z.scanText(), true
	}
	return z.scanText(), true
}

// scanText consumes character data up to the next plausible markup start.
func (z *stringTokenizer) scanText() htmlparse.Token {
	start := z.pos
	i := z.pos
	// The first byte may be a non-markup '<'; always consume at least one.
	i++
	for i < len(z.input) {
		if z.input[i] == '<' && looksLikeMarkup(z.input[i:]) {
			break
		}
		i++
	}
	raw := z.input[start:i]
	z.pos = i
	return htmlparse.Token{Type: htmlparse.Text, Data: htmlparse.DecodeEntities(raw), Pos: start, End: i}
}

// looksLikeMarkup reports whether s (beginning with '<') plausibly starts a
// tag, comment, or declaration, as opposed to a bare less-than in text.
func looksLikeMarkup(s string) bool {
	if len(s) < 2 {
		return false
	}
	c := s[1]
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
		return true
	case c == '/' || c == '!' || c == '?':
		return true
	}
	return false
}

// scanMarkup consumes a tag, comment, or declaration starting at '<'.
// ok is false when the construct is not actually markup.
func (z *stringTokenizer) scanMarkup() (htmlparse.Token, bool) {
	s := z.input
	start := z.pos
	if !looksLikeMarkup(s[start:]) {
		return htmlparse.Token{}, false
	}
	switch s[start+1] {
	case '!':
		return z.scanDeclaration(), true
	case '?':
		// Processing instruction / bogus comment: skip to '>'. An
		// unterminated PI at EOF has no '>' to strip, hence the clamp.
		end := indexFrom(s, start, '>')
		z.pos = end
		return htmlparse.Token{Type: htmlparse.Comment, Data: s[start+2 : max(start+2, end-1)], Pos: start, End: end}, true
	case '/':
		return z.scanEndTag(), true
	default:
		return z.scanStartTag(), true
	}
}

// indexFrom returns the index just past the first occurrence of b at or
// after from, or len(s) if absent.
func indexFrom(s string, from int, b byte) int {
	if i := strings.IndexByte(s[from:], b); i >= 0 {
		return from + i + 1
	}
	return len(s)
}

// scanDeclaration consumes <!-- comments --> and <!DOCTYPE ...> style
// declarations. Comments respect the full "-->" terminator.
func (z *stringTokenizer) scanDeclaration() htmlparse.Token {
	s := z.input
	start := z.pos
	if strings.HasPrefix(s[start:], "<!--") {
		end := strings.Index(s[start+4:], "-->")
		if end < 0 {
			z.pos = len(s)
			return htmlparse.Token{Type: htmlparse.Comment, Data: s[start+4:], Pos: start, End: len(s)}
		}
		stop := start + 4 + end + 3
		z.pos = stop
		return htmlparse.Token{Type: htmlparse.Comment, Data: s[start+4 : stop-3], Pos: start, End: stop}
	}
	end := indexFrom(s, start, '>')
	z.pos = end
	body := s[start+2 : max(start+2, end-1)]
	typ := htmlparse.Comment
	if len(body) >= 7 && strings.EqualFold(body[:7], "doctype") {
		typ = htmlparse.Doctype
	}
	return htmlparse.Token{Type: typ, Data: body, Pos: start, End: end}
}

// scanEndTag consumes </name ...>.
func (z *stringTokenizer) scanEndTag() htmlparse.Token {
	s := z.input
	start := z.pos
	i := start + 2
	nameStart := i
	for i < len(s) && isNameByte(s[i]) {
		i++
	}
	name := strings.ToLower(s[nameStart:i])
	end := indexFrom(s, i, '>')
	z.pos = end
	return htmlparse.Token{Type: htmlparse.EndTag, Name: name, Pos: start, End: end}
}

// scanStartTag consumes <name attr=value ...> including attributes.
func (z *stringTokenizer) scanStartTag() htmlparse.Token {
	s := z.input
	start := z.pos
	i := start + 1
	nameStart := i
	for i < len(s) && isNameByte(s[i]) {
		i++
	}
	name := strings.ToLower(s[nameStart:i])
	tok := htmlparse.Token{Type: htmlparse.StartTag, Name: name, Pos: start}

	for i < len(s) && s[i] != '>' {
		// Skip whitespace between attributes.
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		if i >= len(s) || s[i] == '>' {
			break
		}
		if s[i] == '/' {
			i++
			if i < len(s) && s[i] == '>' {
				tok.SelfClosing = true
			}
			continue
		}
		// Attribute name.
		keyStart := i
		for i < len(s) && !isSpace(s[i]) && s[i] != '=' && s[i] != '>' && s[i] != '/' {
			i++
		}
		key := strings.ToLower(s[keyStart:i])
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		var val string
		if i < len(s) && s[i] == '=' {
			i++
			for i < len(s) && isSpace(s[i]) {
				i++
			}
			if i < len(s) && (s[i] == '"' || s[i] == '\'') {
				quote := s[i]
				i++
				valStart := i
				for i < len(s) && s[i] != quote {
					i++
				}
				val = s[valStart:i]
				if i < len(s) {
					i++ // consume closing quote
				}
			} else {
				valStart := i
				for i < len(s) && !isSpace(s[i]) && s[i] != '>' {
					i++
				}
				val = s[valStart:i]
			}
		}
		if key != "" {
			tok.Attrs = append(tok.Attrs, htmlparse.Attr{Key: key, Value: htmlparse.DecodeEntities(val)})
		}
	}
	if i < len(s) {
		i++ // consume '>'
	}
	tok.End = i
	z.pos = i
	if htmlparse.IsRawText(name) && !tok.SelfClosing {
		z.rawEnd = name
	}
	return tok
}

// scanRawText consumes raw-text content up to the matching end-tag of the
// raw-text element we are inside (script, style, ...). The end-tag itself is
// left for the next call.
func (z *stringTokenizer) scanRawText() htmlparse.Token {
	s := z.input
	start := z.pos
	// ASCII case-insensitive search for "</name" (tag names are ASCII by
	// construction). The old strings.ToLower(s[start:]) approach allocated
	// the whole remainder per raw-text element and, worse, Unicode case
	// mappings that change byte length (U+0130 shrinks) shifted the match
	// offset relative to the original bytes.
	end := htmlparse.RawTextEnd(s, start, z.rawEnd)
	z.pos = end
	z.rawEnd = ""
	// Raw text is not entity-decoded (scripts may contain '&&').
	return htmlparse.Token{Type: htmlparse.Text, Data: s[start:end], Pos: start, End: end}
}

func isNameByte(b byte) bool {
	switch {
	case b >= 'a' && b <= 'z', b >= 'A' && b <= 'Z', b >= '0' && b <= '9':
		return true
	case b == '-' || b == '_' || b == ':' || b == '.':
		return true
	}
	return false
}

func isSpace(b byte) bool {
	return b == ' ' || b == '\t' || b == '\n' || b == '\r' || b == '\f'
}

// stringTokenizeXML is the reference XML tokenizer, with the grammar of
// htmlparse.Arena.TokenizeXML.
func stringTokenizeXML(input string) []htmlparse.Token {
	z := &stringXMLTokenizer{input: input}
	var out []htmlparse.Token
	for {
		tok, ok := z.next()
		if !ok {
			return out
		}
		out = append(out, tok)
	}
}

type stringXMLTokenizer struct {
	input string
	pos   int
}

func (z *stringXMLTokenizer) next() (htmlparse.Token, bool) {
	if z.pos >= len(z.input) {
		return htmlparse.Token{}, false
	}
	s := z.input
	if s[z.pos] == '<' && looksLikeMarkup(s[z.pos:]) {
		if strings.HasPrefix(s[z.pos:], "<![CDATA[") {
			return z.scanCDATA(), true
		}
		return z.scanMarkup(), true
	}
	return z.scanText(), true
}

func (z *stringXMLTokenizer) scanText() htmlparse.Token {
	start := z.pos
	i := start + 1
	for i < len(z.input) {
		if z.input[i] == '<' && looksLikeMarkup(z.input[i:]) {
			break
		}
		i++
	}
	z.pos = i
	return htmlparse.Token{Type: htmlparse.Text, Data: htmlparse.DecodeEntities(z.input[start:i]), Pos: start, End: i}
}

func (z *stringXMLTokenizer) scanCDATA() htmlparse.Token {
	start := z.pos
	body := start + len("<![CDATA[")
	end := strings.Index(z.input[body:], "]]>")
	if end < 0 {
		z.pos = len(z.input)
		return htmlparse.Token{Type: htmlparse.Text, Data: z.input[body:], Pos: start, End: len(z.input)}
	}
	stop := body + end + 3
	z.pos = stop
	// CDATA content is literal: no entity decoding.
	return htmlparse.Token{Type: htmlparse.Text, Data: z.input[body : body+end], Pos: start, End: stop}
}

func (z *stringXMLTokenizer) scanMarkup() htmlparse.Token {
	s := z.input
	start := z.pos
	switch s[start+1] {
	case '!':
		// Comments and declarations: reuse the HTML scanner's logic.
		h := &stringTokenizer{input: s, pos: start}
		tok := h.scanDeclaration()
		z.pos = h.pos
		return tok
	case '?':
		end := indexFrom(s, start, '>')
		z.pos = end
		return htmlparse.Token{Type: htmlparse.Comment, Data: s[start+2 : max(start+2, end-1)], Pos: start, End: end}
	case '/':
		i := start + 2
		nameStart := i
		for i < len(s) && isNameByte(s[i]) {
			i++
		}
		name := s[nameStart:i] // case preserved
		end := indexFrom(s, i, '>')
		z.pos = end
		return htmlparse.Token{Type: htmlparse.EndTag, Name: name, Pos: start, End: end}
	default:
		// Start tag: reuse the HTML attribute scanner, then restore case.
		h := &stringTokenizer{input: s, pos: start}
		tok := h.scanStartTag()
		z.pos = h.pos
		nameEnd := start + 1
		for nameEnd < len(s) && isNameByte(s[nameEnd]) {
			nameEnd++
		}
		tok.Name = s[start+1 : nameEnd]
		h.rawEnd = "" // XML has no raw-text elements
		return tok
	}
}
