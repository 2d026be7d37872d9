package pipeline

import (
	"unicode/utf16"
	"unicode/utf8"
)

// taskLine is the NDJSON input envelope: the /v1/discover request fields
// plus the bulk id and shard labels.
type taskLine struct {
	ID            string   `json:"id,omitempty"`
	HTML          string   `json:"html,omitempty"`
	XML           string   `json:"xml,omitempty"`
	Ontology      string   `json:"ontology,omitempty"`
	SeparatorList []string `json:"separator_list,omitempty"`
	Shard         string   `json:"shard,omitempty"`

	// docBuf is the recycled buffer HTML or XML views when the fast path
	// decoded the document value into one (see EnvelopeDecoder.decode).
	docBuf *[]byte
}

// envelopeField is one bit per taskLine field, recording which keys an
// object named.
type envelopeField uint8

const (
	fieldID envelopeField = 1 << iota
	fieldHTML
	fieldXML
	fieldOntology
	fieldSeparatorList
	fieldShard
)

// EnvelopeDecoder is the fast path of the request-envelope decoder shared by
// NDJSON lines and /v1/discover bodies. It makes one pass over the object and
// unescapes each string value straight into its final string, one
// allocation per field (an NDJSON line's document value goes to a recycled
// buffer instead, see NDJSONSource), and accepts only the shape
// encoding/json would decode to the same fields:
//
//   - the keys are exactly the lowercase field names (id, html, xml,
//     ontology, separator_list, shard), unescaped, each at most once;
//   - every value is a string, separator_list an array of strings;
//   - every string decodes to valid UTF-8 with no lone surrogate escape;
//   - nothing but JSON whitespace follows the closing brace.
//
// Anything else — case-folded or unknown keys, duplicates, null or
// non-string values, invalid UTF-8 (which encoding/json turns into U+FFFD),
// trailing bytes, malformed input — reports ok=false, and the caller decodes
// the same bytes with encoding/json, so error text and every accepted value
// stay exactly what encoding/json gives. FuzzEnvelope holds the two equal.
//
// The zero value is ready to use. A decoder keeps a scratch buffer between
// calls and is not safe for concurrent use; decoded strings never alias the
// input or the scratch buffer.
type EnvelopeDecoder struct {
	scratch []byte
}

// Request decodes a /v1/discover request body: the envelope less the bulk id
// and shard, which the HTTP request type does not have. ok is false whenever
// the fast path does not apply, including a body that names id or shard;
// the caller then decodes body with encoding/json.
func (d *EnvelopeDecoder) Request(body []byte) (html, xml, ontology string, separatorList []string, ok bool) {
	var tl taskLine
	seen, ok := d.decode(body, &tl, false)
	if !ok || seen&(fieldID|fieldShard) != 0 {
		return "", "", "", nil, false
	}
	return tl.HTML, tl.XML, tl.Ontology, tl.SeparatorList, true
}

// decode fills tl from one JSON object on the fast path and reports which
// keys it named. With recycle set, a non-empty html or xml value is copied
// into a buffer from the document pool and tl.HTML or tl.XML views it
// (tl.docBuf); every other value is an owned string. On ok=false tl may be
// partly filled and must be reset before a fallback decode.
func (d *EnvelopeDecoder) decode(data []byte, tl *taskLine, recycle bool) (seen envelopeField, ok bool) {
	i := skipSpace(data, 0)
	if i >= len(data) || data[i] != '{' {
		return 0, false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return 0, skipSpace(data, i+1) == len(data)
	}
	for {
		field, dst, next := envelopeKey(data, i, tl)
		if field == 0 || seen&field != 0 {
			return 0, false
		}
		seen |= field
		i = skipSpace(data, next)
		if i >= len(data) || data[i] != ':' {
			return 0, false
		}
		i = skipSpace(data, i+1)
		switch {
		case field == fieldSeparatorList:
			tl.SeparatorList, i, ok = d.stringArray(data, i)
		case recycle && field&(fieldHTML|fieldXML) != 0:
			var raw []byte
			if raw, i, ok = d.strBytes(data, i); ok && len(raw) > 0 {
				// A line naming both keys is invalid; the first buffer
				// is simply left to the collector.
				tl.docBuf = getDocBuf(len(raw))
				copy(*tl.docBuf, raw)
				*dst = docView(*tl.docBuf)
			}
		default:
			*dst, i, ok = d.str(data, i)
		}
		if !ok {
			return 0, false
		}
		i = skipSpace(data, i)
		if i >= len(data) {
			return 0, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case '}':
			return seen, skipSpace(data, i+1) == len(data)
		default:
			return 0, false
		}
	}
}

// envelopeKey reads the quoted key at data[i] and maps it to its field and
// destination string (nil for separator_list). field is 0 for any key that
// is not exactly one of the lowercase names, escapes included.
func envelopeKey(data []byte, i int, tl *taskLine) (field envelopeField, dst *string, next int) {
	if i >= len(data) || data[i] != '"' {
		return 0, nil, 0
	}
	end := i + 1
	for end < len(data) && data[end] != '"' {
		end++
	}
	if end >= len(data) {
		return 0, nil, 0
	}
	switch string(data[i+1 : end]) {
	case "id":
		return fieldID, &tl.ID, end + 1
	case "html":
		return fieldHTML, &tl.HTML, end + 1
	case "xml":
		return fieldXML, &tl.XML, end + 1
	case "ontology":
		return fieldOntology, &tl.Ontology, end + 1
	case "separator_list":
		return fieldSeparatorList, nil, end + 1
	case "shard":
		return fieldShard, &tl.Shard, end + 1
	}
	return 0, nil, 0
}

// stringArray reads a JSON array of strings at data[i]. An empty array
// decodes to an empty, non-nil slice, as encoding/json gives.
func (d *EnvelopeDecoder) stringArray(data []byte, i int) ([]string, int, bool) {
	if i >= len(data) || data[i] != '[' {
		return nil, 0, false
	}
	list := []string{}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return list, i + 1, true
	}
	for {
		s, next, ok := d.str(data, i)
		if !ok {
			return nil, 0, false
		}
		list = append(list, s)
		i = skipSpace(data, next)
		if i >= len(data) {
			return nil, 0, false
		}
		switch data[i] {
		case ',':
			i = skipSpace(data, i+1)
		case ']':
			return list, i + 1, true
		default:
			return nil, 0, false
		}
	}
}

// str reads the JSON string at data[i] and returns its value and the index
// past the closing quote. A string without escapes is copied once; one with
// escapes is unescaped into the scratch buffer and copied once from there.
func (d *EnvelopeDecoder) str(data []byte, i int) (string, int, bool) {
	b, next, ok := d.strBytes(data, i)
	return string(b), next, ok
}

// strBytes reads the JSON string at data[i] and returns its unescaped bytes
// and the index past the closing quote. The bytes alias data when the
// string has no escapes and the decoder's scratch buffer otherwise, so they
// are valid only until the next call.
func (d *EnvelopeDecoder) strBytes(data []byte, i int) ([]byte, int, bool) {
	if i >= len(data) || data[i] != '"' {
		return nil, 0, false
	}
	i++
	start := i
	for i < len(data) {
		c := data[i]
		if plainByte[c] {
			i++
			continue
		}
		switch {
		case c == '"':
			return data[start:i], i + 1, true
		case c == '\\':
			return d.unescape(data, start, i)
		case c < utf8.RuneSelf:
			return nil, 0, false // a raw control character
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			return nil, 0, false
		}
		i += size
	}
	return nil, 0, false
}

// unescape finishes a string whose first escape is at data[i]; data[start:i]
// is its plain prefix. The result is the decoder's scratch buffer.
func (d *EnvelopeDecoder) unescape(data []byte, start, i int) ([]byte, int, bool) {
	buf := append(d.scratch[:0], data[start:i]...)
	for i < len(data) {
		c := data[i]
		if plainByte[c] {
			j := i + 1
			for j < len(data) && plainByte[data[j]] {
				j++
			}
			buf = append(buf, data[i:j]...)
			i = j
			continue
		}
		switch {
		case c == '"':
			d.scratch = buf
			return buf, i + 1, true
		case c == '\\':
			if i+1 >= len(data) {
				return nil, 0, false
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				// json.Marshal escapes <, > and & as six-byte \u00XX
				// sequences: decode \u00XX below 0x80 to its byte
				// before the general path.
				if i+6 <= len(data) && data[i+2] == '0' && data[i+3] == '0' {
					if hi, lo := hexVal[data[i+4]], hexVal[data[i+5]]; hi >= 0 && hi < 8 && lo >= 0 {
						buf = append(buf, byte(hi)<<4|byte(lo))
						i += 6
						continue
					}
				}
				r := hex4(data, i+2)
				if r < 0 {
					return nil, 0, false
				}
				i += 6
				if utf16.IsSurrogate(r) {
					// Only a high surrogate followed by a low one is a
					// rune; encoding/json turns anything else into U+FFFD.
					if r >= 0xDC00 || i+1 >= len(data) || data[i] != '\\' || data[i+1] != 'u' {
						return nil, 0, false
					}
					lo := hex4(data, i+2)
					if lo < 0xDC00 || lo > 0xDFFF {
						return nil, 0, false
					}
					r = utf16.DecodeRune(r, lo)
					i += 6
				}
				buf = utf8.AppendRune(buf, r)
				continue
			default:
				return nil, 0, false
			}
			i += 2
		case c < utf8.RuneSelf:
			return nil, 0, false // a raw control character
		default:
			r, size := utf8.DecodeRune(data[i:])
			if r == utf8.RuneError && size == 1 {
				return nil, 0, false
			}
			buf = append(buf, data[i:i+size]...)
			i += size
		}
	}
	d.scratch = buf
	return nil, 0, false
}

// hex4 parses the four hex digits at data[i:i+4], or returns -1.
func hex4(data []byte, i int) rune {
	if i+4 > len(data) {
		return -1
	}
	var r rune
	for _, c := range data[i : i+4] {
		v := hexVal[c]
		if v < 0 {
			return -1
		}
		r = r<<4 | rune(v)
	}
	return r
}

// skipSpace returns the index of the first non-whitespace byte at or after
// i, using JSON's four whitespace bytes.
func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// plainByte marks the bytes a JSON string holds verbatim: printable ASCII
// other than the quote and the backslash.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// hexVal maps a hex digit to its value and every other byte to -1.
var hexVal = func() (t [256]int8) {
	for c := range t {
		t[c] = -1
	}
	for c := '0'; c <= '9'; c++ {
		t[c] = int8(c - '0')
	}
	for c := 'a'; c <= 'f'; c++ {
		t[c] = int8(c - 'a' + 10)
		t[c-'a'+'A'] = int8(c - 'a' + 10)
	}
	return t
}()
