package htmlparse

import "strings"

// This file is the byte-level scan core: allocation-free primitives over the
// raw document that the arena tokenizer (arena.go) and internal/template's
// structural fingerprint scanner share. Every function works on index spans
// into the input string and never allocates, so callers decide when (and
// whether) bytes become heap strings. internal/tagtree's test-only reference
// parser restates the grammar independently: any change here must keep
// FuzzByteVsStringParse green.

// MarkupStartsAt reports whether a plausible tag, comment, or declaration
// begins at s[i]. s[i] must be '<'; a bare less-than followed by anything
// else is character data.
func MarkupStartsAt(s string, i int) bool {
	if i+1 >= len(s) {
		return false
	}
	c := s[i+1]
	return c == '/' || c == '!' || c == '?' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

// NameEnd returns the index just past the run of tag-name bytes starting at
// i ([a-zA-Z0-9._:-]).
func NameEnd(s string, i int) int {
	for i < len(s) && isNameByte(s[i]) {
		i++
	}
	return i
}

// ScanTagAttrs scans a start tag's attribute section. i must point just past
// the tag name; the scan honors quoted values (a '>' inside quotes does not
// close the tag) and stops just past the closing '>' (or at end of input).
// visit, when non-nil, receives each non-empty attribute's key span
// [k0,k1), raw (undecoded) value span [v0,v1), and whether an '=' was
// present. The spans let callers that only need structure skip all string
// work.
func ScanTagAttrs(s string, i int, visit func(k0, k1, v0, v1 int, hasVal bool)) (next int, selfClosing bool) {
	for i < len(s) && s[i] != '>' {
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		if i >= len(s) || s[i] == '>' {
			break
		}
		if s[i] == '/' {
			i++
			if i < len(s) && s[i] == '>' {
				selfClosing = true
			}
			continue
		}
		k0 := i
		for i < len(s) && !isSpace(s[i]) && s[i] != '=' && s[i] != '>' && s[i] != '/' {
			i++
		}
		k1 := i
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		v0, v1 := i, i
		hasVal := false
		if i < len(s) && s[i] == '=' {
			hasVal = true
			i++
			for i < len(s) && isSpace(s[i]) {
				i++
			}
			if i < len(s) && (s[i] == '"' || s[i] == '\'') {
				quote := s[i]
				i++
				v0 = i
				for i < len(s) && s[i] != quote {
					i++
				}
				v1 = i
				if i < len(s) {
					i++ // consume closing quote
				}
			} else {
				v0 = i
				for i < len(s) && !isSpace(s[i]) && s[i] != '>' {
					i++
				}
				v1 = i
			}
		}
		if k1 > k0 && visit != nil {
			visit(k0, k1, v0, v1, hasVal)
		}
	}
	if i < len(s) {
		i++ // consume '>'
	}
	return i, selfClosing
}

// ScanDeclarationSpans scans a construct beginning "<!" at start: either a
// <!-- comment --> (full "-->" terminator respected) or a <!DOCTYPE ...>
// style declaration. It returns the body span [b0,b1), the index just past
// the construct, and whether the body names a doctype.
func ScanDeclarationSpans(s string, start int) (b0, b1, next int, doctype bool) {
	if strings.HasPrefix(s[start:], "<!--") {
		end := strings.Index(s[start+4:], "-->")
		if end < 0 {
			return start + 4, len(s), len(s), false
		}
		stop := start + 4 + end + 3
		return start + 4, stop - 3, stop, false
	}
	next = indexFrom(s, start, '>')
	b0 = start + 2
	b1 = max(b0, next-1)
	body := s[b0:b1]
	doctype = len(body) >= 7 && strings.EqualFold(body[:7], "doctype")
	return b0, b1, next, doctype
}

// ScanPISpans scans a processing instruction / bogus comment beginning "<?"
// at start: everything to the next '>' (an unterminated PI at EOF has no '>'
// to strip, hence the clamp). It returns the body span and the index just
// past the construct.
func ScanPISpans(s string, start int) (b0, b1, next int) {
	next = indexFrom(s, start, '>')
	return start + 2, max(start+2, next-1), next
}

// RawTextEnd returns the index of the "</name" opener that terminates a
// raw-text element's content, searching from i with ASCII case-insensitive
// matching, or len(s) when the end-tag never appears. name must already be
// lowercase (tag names are ASCII by construction: see isNameByte).
func RawTextEnd(s string, i int, name string) int {
	for i < len(s) {
		j := strings.IndexByte(s[i:], '<')
		if j < 0 {
			return len(s)
		}
		i += j
		if i+1 < len(s) && s[i+1] == '/' && hasFoldPrefixASCII(s[i+2:], name) {
			return i
		}
		i++
	}
	return len(s)
}

// hasFoldPrefixASCII reports whether s begins with name under ASCII case
// folding. name must already be lowercase.
func hasFoldPrefixASCII(s, name string) bool {
	if len(s) < len(name) {
		return false
	}
	for k := 0; k < len(name); k++ {
		c := s[k]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[k] {
			return false
		}
	}
	return true
}

// indexFrom returns the index just past the first occurrence of b at or
// after from, or len(s) if absent.
func indexFrom(s string, from int, b byte) int {
	if i := strings.IndexByte(s[from:], b); i >= 0 {
		return from + i + 1
	}
	return len(s)
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
