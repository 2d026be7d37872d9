package pipeline

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The wire encoder: one append-style JSON encoder for the two shapes a
// discovery answer takes on the wire. AppendOutcome writes the NDJSON
// outcome line of the bulk engine, /v1/discover/stream and the router's
// stream path; AppendDiscover writes the /v1/discover body the result cache
// stores. Both produce exactly the bytes encoding/json's Marshal gives for
// the same fields, plus a trailing newline as json.Encoder writes:
//
//   - nil slices and maps are null, empty ones [] and {};
//   - map keys are sorted by byte;
//   - floats use 'f' format, or 'e' outside [1e-6, 1e21) with a one-digit
//     negative exponent unpadded (1e-7, not 1e-07);
//   - strings escape '"', '\\', control bytes, '<', '>', '&', U+2028 and
//     U+2029, and turn each invalid UTF-8 byte into \ufffd.
//
// FuzzWireEncoding holds both entry points equal to encoding/json.

// AppendOutcome appends o as one NDJSON line: every field omitted when
// empty, as json.Marshal of an Outcome, except seq and id. It fails only on
// a non-finite score, which JSON cannot represent.
func AppendOutcome(dst []byte, o *Outcome) ([]byte, error) {
	if err := checkFinite(o.Scores); err != nil {
		return dst, err
	}
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, int64(o.Seq), 10)
	dst = append(dst, `,"id":`...)
	dst = appendString(dst, o.ID)
	if o.Shard != "" {
		dst = append(dst, `,"shard":`...)
		dst = appendString(dst, o.Shard)
	}
	if o.Attempts != 0 {
		dst = append(dst, `,"attempts":`...)
		dst = strconv.AppendInt(dst, int64(o.Attempts), 10)
	}
	r := &o.Result
	if r.Separator != "" {
		dst = append(dst, `,"separator":`...)
		dst = appendString(dst, r.Separator)
	}
	if len(r.TopTags) > 0 {
		dst = append(dst, `,"top_tags":`...)
		dst = appendStrings(dst, r.TopTags)
	}
	if len(r.Scores) > 0 {
		dst = append(dst, `,"scores":`...)
		dst = appendArray(dst, r.Scores, appendScore)
	}
	if len(r.Rankings) > 0 {
		dst = append(dst, `,"rankings":`...)
		dst = appendRankings(dst, r.Rankings)
	}
	if len(r.Candidates) > 0 {
		dst = append(dst, `,"candidates":`...)
		dst = appendArray(dst, r.Candidates, appendCandidate)
	}
	if r.Subtree != "" {
		dst = append(dst, `,"subtree":`...)
		dst = appendString(dst, r.Subtree)
	}
	dst = appendFailure(dst, r)
	if o.Error != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, o.Error)
	}
	return append(dst, '}', '\n'), nil
}

// AppendDiscover appends r as a /v1/discover response body: separator,
// top_tags, scores, rankings, candidates and subtree always present, the
// degraded and failed_heuristics fields only when set. It fails only on a
// non-finite score, which JSON cannot represent.
func AppendDiscover(dst []byte, r *Result) ([]byte, error) {
	if err := checkFinite(r.Scores); err != nil {
		return dst, err
	}
	dst = append(dst, `{"separator":`...)
	dst = appendString(dst, r.Separator)
	dst = append(dst, `,"top_tags":`...)
	dst = appendStrings(dst, r.TopTags)
	dst = append(dst, `,"scores":`...)
	dst = appendArray(dst, r.Scores, appendScore)
	dst = append(dst, `,"rankings":`...)
	dst = appendRankings(dst, r.Rankings)
	dst = append(dst, `,"candidates":`...)
	dst = appendArray(dst, r.Candidates, appendCandidate)
	dst = append(dst, `,"subtree":`...)
	dst = appendString(dst, r.Subtree)
	dst = appendFailure(dst, r)
	return append(dst, '}', '\n'), nil
}

// appendFailure appends the degraded and failed_heuristics fields, each
// omitted when empty on both surfaces.
func appendFailure(dst []byte, r *Result) []byte {
	if r.Degraded {
		dst = append(dst, `,"degraded":true`...)
	}
	if len(r.FailedHeuristics) > 0 {
		dst = append(dst, `,"failed_heuristics":`...)
		dst = appendStrings(dst, r.FailedHeuristics)
	}
	return dst
}

// checkFinite rejects the float values encoding/json refuses to encode.
func checkFinite(scores []Score) error {
	for _, s := range scores {
		if math.IsInf(s.CF, 0) || math.IsNaN(s.CF) {
			return fmt.Errorf("pipeline: unsupported score %v for tag %q", s.CF, s.Tag)
		}
	}
	return nil
}

// appendArray appends list as a JSON array, each element by elem; a nil
// list is null.
func appendArray[T any](dst []byte, list []T, elem func([]byte, T) []byte) []byte {
	if list == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, v := range list {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = elem(dst, v)
	}
	return append(dst, ']')
}

func appendStrings(dst []byte, list []string) []byte {
	return appendArray(dst, list, appendString)
}

func appendScore(dst []byte, s Score) []byte {
	dst = append(dst, `{"tag":`...)
	dst = appendString(dst, s.Tag)
	dst = append(dst, `,"cf":`...)
	dst = appendFloat(dst, s.CF)
	return append(dst, '}')
}

func appendRankEntry(dst []byte, e RankEntry) []byte {
	dst = append(dst, `{"tag":`...)
	dst = appendString(dst, e.Tag)
	dst = append(dst, `,"rank":`...)
	dst = strconv.AppendInt(dst, int64(e.Rank), 10)
	return append(dst, '}')
}

func appendCandidate(dst []byte, c Candidate) []byte {
	dst = append(dst, `{"tag":`...)
	dst = appendString(dst, c.Tag)
	dst = append(dst, `,"count":`...)
	dst = strconv.AppendInt(dst, int64(c.Count), 10)
	return append(dst, '}')
}

// appendRankings appends the rankings object with its keys in byte order.
// Five heuristics at most name a ranking, so the keys sort on the stack.
func appendRankings(dst []byte, rankings map[string][]RankEntry) []byte {
	if rankings == nil {
		return append(dst, "null"...)
	}
	keys := make([]string, 0, 8)
	for name := range rankings {
		keys = append(keys, name)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, name := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, name)
		dst = append(dst, ':')
		dst = appendArray(dst, rankings[name], appendRankEntry)
	}
	return append(dst, '}')
}

// appendFloat appends f in encoding/json's float64 format (ES6 number to
// string): 'f' format, 'e' for magnitudes outside [1e-6, 1e21), with a
// padded one-digit negative exponent cleaned up. f must be finite.
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendString appends s as a JSON string exactly as encoding/json's
// Marshal writes it, HTML escaping included.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				// Other control bytes, and <, > and & for HTML safety.
				dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// htmlSafe marks the ASCII bytes a JSON string holds verbatim under HTML
// escaping: printable ASCII other than '"', '\\', '<', '>' and '&'.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()
