package pipeline

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ontology"
	"repro/internal/paperdoc"
)

// legacyOutcome is the NDJSON outcome line's field list as json.Marshal
// encodes it: the oracle for AppendOutcome.
type legacyOutcome struct {
	Seq              int                    `json:"seq"`
	ID               string                 `json:"id"`
	Shard            string                 `json:"shard,omitempty"`
	Attempts         int                    `json:"attempts,omitempty"`
	Separator        string                 `json:"separator,omitempty"`
	TopTags          []string               `json:"top_tags,omitempty"`
	Scores           []Score                `json:"scores,omitempty"`
	Rankings         map[string][]RankEntry `json:"rankings,omitempty"`
	Candidates       []Candidate            `json:"candidates,omitempty"`
	Subtree          string                 `json:"subtree,omitempty"`
	Degraded         bool                   `json:"degraded,omitempty"`
	FailedHeuristics []string               `json:"failed_heuristics,omitempty"`
	Error            string                 `json:"error,omitempty"`
}

// legacyDiscover is the /v1/discover body's field list as json.Marshal
// encodes it: the oracle for AppendDiscover.
type legacyDiscover struct {
	Separator        string                 `json:"separator"`
	TopTags          []string               `json:"top_tags"`
	Scores           []Score                `json:"scores"`
	Rankings         map[string][]RankEntry `json:"rankings"`
	Candidates       []Candidate            `json:"candidates"`
	Subtree          string                 `json:"subtree"`
	Degraded         bool                   `json:"degraded,omitempty"`
	FailedHeuristics []string               `json:"failed_heuristics,omitempty"`
}

// checkWire compares both entry points against encoding/json for o.
func checkWire(t *testing.T, o *Outcome) {
	t.Helper()
	r := &o.Result
	want, wantErr := json.Marshal(legacyOutcome{
		Seq: o.Seq, ID: o.ID, Shard: o.Shard, Attempts: o.Attempts,
		Separator: r.Separator, TopTags: r.TopTags, Scores: r.Scores,
		Rankings: r.Rankings, Candidates: r.Candidates, Subtree: r.Subtree,
		Degraded: r.Degraded, FailedHeuristics: r.FailedHeuristics, Error: o.Error,
	})
	got, err := AppendOutcome([]byte("prefix"), o)
	compareWire(t, "AppendOutcome", want, wantErr, got, err)

	want, wantErr = json.Marshal(legacyDiscover{
		Separator: r.Separator, TopTags: r.TopTags, Scores: r.Scores,
		Rankings: r.Rankings, Candidates: r.Candidates, Subtree: r.Subtree,
		Degraded: r.Degraded, FailedHeuristics: r.FailedHeuristics,
	})
	got, err = AppendDiscover([]byte("prefix"), r)
	compareWire(t, "AppendDiscover", want, wantErr, got, err)
}

func compareWire(t *testing.T, name string, want []byte, wantErr error, got []byte, err error) {
	t.Helper()
	if (wantErr != nil) != (err != nil) {
		t.Fatalf("%s: error %v, encoding/json error %v", name, err, wantErr)
	}
	if !bytes.HasPrefix(got, []byte("prefix")) {
		t.Fatalf("%s: did not append to dst: %q", name, got)
	}
	if err != nil {
		if string(got) != "prefix" {
			t.Fatalf("%s: failed but wrote %q", name, got)
		}
		return
	}
	if want = append(want, '\n'); !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%s:\n got %s\nwant %s", name, got[len("prefix"):], want)
	}
}

func TestWireEncodingEdgeCases(t *testing.T) {
	strs := []string{
		"", "hr", `"quoted" \back\slash`, "<b>&amp;</b>", "\x00\x01\x1f\x7f",
		"\b\f\n\r\t", "\u2028\u2029", "caf\xc3\xa9", "bad\xffutf8\xc3", "\xed\xa0\x80",
		"日本語", "\U0001F600", "/slash/",
	}
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.9996, 1e-6, 9.99e-7, 1e-7, 1.5e-10,
		1e20, 1e21, 1.5e21, 5e-324, math.MaxFloat64, -2.5e-8, 123456789.125,
	}
	for _, s := range strs {
		checkWire(t, &Outcome{Seq: 3, ID: s, Shard: s, Error: s, Result: Result{
			Separator: s, TopTags: []string{s, s}, Subtree: s, FailedHeuristics: []string{s},
			Scores: []Score{{Tag: s, CF: 0.5}}, Rankings: map[string][]RankEntry{s: {{Tag: s, Rank: 1}}},
			Candidates: []Candidate{{Tag: s, Count: 2}},
		}})
	}
	for _, f := range floats {
		checkWire(t, &Outcome{Result: Result{Scores: []Score{{Tag: "hr", CF: f}, {Tag: "b", CF: -f}}}})
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkWire(t, &Outcome{Result: Result{Scores: []Score{{Tag: "hr", CF: f}}}})
	}
	// nil against empty, everywhere both can occur.
	checkWire(t, &Outcome{})
	checkWire(t, &Outcome{Seq: -1, Attempts: -2, Result: Result{
		TopTags: []string{}, Scores: []Score{}, Rankings: map[string][]RankEntry{},
		Candidates: []Candidate{}, FailedHeuristics: []string{}, Degraded: true,
	}})
	checkWire(t, &Outcome{Result: Result{Rankings: map[string][]RankEntry{
		"SD": nil, "HT": {}, "OM": {{Tag: "hr", Rank: 1}, {Tag: "b", Rank: 2}},
		"IT": {{Tag: "hr", Rank: -3}}, "Z": nil, "a": nil, "é": nil, "<": nil,
	}}})
}

// wireReader derives the fields of a fuzzed outcome from raw bytes.
type wireReader struct{ data []byte }

func (r *wireReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *wireReader) float() float64 {
	var buf [8]byte
	n := copy(buf[:], r.data)
	r.data = r.data[n:]
	switch buf[0] % 4 {
	case 0: // a certainty factor in [0, 1]
		return float64(binary.LittleEndian.Uint32(buf[1:5])) / math.MaxUint32
	case 1: // around the 'e' format cut-offs
		return float64(int8(buf[1])) * math.Pow(10, float64(int8(buf[2])%30))
	default: // any bit pattern, non-finite values included
		return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	}
}

// FuzzWireEncoding holds AppendOutcome and AppendDiscover byte-identical to
// encoding/json on random result fields: strings cut from text, floats
// drawn from raw bits, and nil against empty slices and maps.
func FuzzWireEncoding(f *testing.F) {
	f.Add("hr|b|br", "doc-1", []byte{3, 2, 1, 0, 5, 9, 200, 17})
	f.Add("<a>&\u2028|\xff|\x01", "", []byte{255, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add("", "err", []byte{})
	f.Fuzz(func(t *testing.T, text, id string, shape []byte) {
		tags := strings.Split(text, "|")
		r := &wireReader{data: shape}
		pick := func() string { return tags[int(r.byte())%len(tags)] }
		// strings gives nil, empty or n picked strings.
		strs := func() []string {
			n := int(r.byte() % 5)
			if n == 0 {
				return nil
			}
			out := make([]string, 0, n-1)
			for i := 0; i < n-1; i++ {
				out = append(out, pick())
			}
			return out
		}
		o := &Outcome{Seq: int(int8(r.byte())), ID: id, Attempts: int(r.byte() % 3)}
		if r.byte()%2 == 1 {
			o.Shard, o.Error = pick(), pick()
		}
		res := &o.Result
		res.Separator, res.Subtree, res.Degraded = pick(), pick(), r.byte()%2 == 1
		res.TopTags, res.FailedHeuristics = strs(), strs()
		if n := int(r.byte() % 5); n > 0 {
			res.Scores = make([]Score, n-1)
			for i := range res.Scores {
				res.Scores[i] = Score{Tag: pick(), CF: r.float()}
			}
		}
		if n := int(r.byte() % 5); n > 0 {
			res.Candidates = make([]Candidate, n-1)
			for i := range res.Candidates {
				res.Candidates[i] = Candidate{Tag: pick(), Count: int(int16(r.byte())<<8 | int16(r.byte()))}
			}
		}
		if n := int(r.byte() % 7); n > 0 {
			res.Rankings = make(map[string][]RankEntry)
			for i := 0; i < n-1; i++ {
				var rows []RankEntry
				if k := int(r.byte() % 4); k > 0 {
					rows = make([]RankEntry, k-1)
					for j := range rows {
						rows[j] = RankEntry{Tag: pick(), Rank: int(int8(r.byte()))}
					}
				}
				res.Rankings[pick()] = rows
			}
		}
		checkWire(t, o)
	})
}

// BenchmarkWireEncoding encodes the Figure 2 answer as an NDJSON outcome
// line, with the append encoder into a reused buffer and with json.Marshal.
func BenchmarkWireEncoding(b *testing.B) {
	res, err := core.Discover(paperdoc.Figure2, core.Options{Ontology: ontology.Builtin("obituary")})
	if err != nil {
		b.Fatal(err)
	}
	o := &Outcome{Seq: 7, ID: "fig2", Result: NewResult(res)}
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var line []byte
		for i := 0; i < b.N; i++ {
			line, _ = AppendOutcome(line[:0], o)
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			line, _ := json.Marshal(o)
			_ = append(line, '\n')
		}
	})
}
