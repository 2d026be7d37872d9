package pipeline

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/corpus"
)

// discoverRequest mirrors the /v1/discover request type of internal/httpapi:
// the envelope without the bulk id and shard.
type discoverRequest struct {
	HTML          string   `json:"html,omitempty"`
	XML           string   `json:"xml,omitempty"`
	Ontology      string   `json:"ontology,omitempty"`
	SeparatorList []string `json:"separator_list,omitempty"`
}

// fastEnvelopes are objects the fast path must take: what json.Marshal
// writes, every escape form, and whitespace everywhere JSON allows it.
var fastEnvelopes = func() []string {
	marshaled, _ := json.Marshal(taskLine{
		ID: "a&b", HTML: "<div><hr><b>A</b> x & y<hr></div>", Ontology: "obituary",
		SeparatorList: []string{"hr", "<br>"}, Shard: "s",
	})
	return []string{
		string(marshaled),
		`{}`,
		` { "html" : "x" , "xml" : "" , "separator_list" : [ "a" , "b" ] } `,
		"\t{\"html\":\"x\"}\r\n",
		`{"html":"\u003cp\u003e \u0026amp; \"q\" \\ \/ \b\f\n\r\t"}`,
		`{"html":"\ud83d\ude00 \u00e9 \u4e2d"}`,
		`{"html":"a\u0000b"}`,
		`{"html":"\u007f\u0080\u00FF \u001F\u00Ab\u0041\u00410"}`,
		"{\"html\":\"\xef\xbf\xbd\"}",
		`{"separator_list":[]}`,
		`{"html":"x","id":"i","shard":"s"}`,
	}
}()

// fallbackEnvelopes are inputs the fast path must hand to encoding/json.
var fallbackEnvelopes = []string{
	`{"html":"\ud800"}`,
	`{"html":"\udc00x"}`,
	`{"html":"\ud800\u0041"}`,
	"{\"html\":\"a\xffb\"}",
	"{\"html\":\"\xed\xa0\x80\"}",
	"{\"html\":\"a\x01b\"}",
	`{"HTML":"x"}`,
	`{"Html":"x","ID":"y"}`,
	`{"html":"a","html":"b"}`,
	`{"separator_list":["a"],"separator_list":[]}`,
	`{"html":null}`,
	`{"separator_list":null}`,
	`{"separator_list":[null]}`,
	`{"html":1}`,
	`{"html":"x","extra":true}`,
	`{"h\u0074ml":"x"}`,
	`{"html":"x"} trailing`,
	`{"html":"x"}{"html":"y"}`,
	`{"html":"x",}`,
	`{"html":"x"`,
	`{"html":"\u00"}`,
	`{"html":"\x"}`,
	`[]`,
	`""`,
	``,
}

// FuzzEnvelope holds the envelope decoder's fast path equal to encoding/json:
// whatever the fast path accepts, json.Unmarshal decodes to the same
// taskLine, and the /v1/discover projection equals what a json.Decoder with
// DisallowUnknownFields gives.
func FuzzEnvelope(f *testing.F) {
	for _, s := range append(append([]string(nil), fastEnvelopes...), fallbackEnvelopes...) {
		f.Add([]byte(s))
	}
	var d EnvelopeDecoder // shared, so the scratch buffer carries over
	f.Fuzz(func(t *testing.T, data []byte) {
		var got taskLine
		_, ok := d.decode(data, &got)
		buf := got.docBuf
		got.docBuf = nil
		if ok {
			var want taskLine
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("fast path accepted %q; encoding/json: %v", data, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%q:\nfast path     %#v\nencoding/json %#v", data, got, want)
			}
		}
		PutDocBuf(buf)
		if html, xml, ont, seps, doc, ok := d.Request(data); ok {
			got := discoverRequest{HTML: html, XML: xml, Ontology: ont, SeparatorList: seps}
			var want discoverRequest
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&want); err != nil {
				t.Fatalf("fast path accepted request %q; encoding/json: %v", data, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("request %q:\nfast path     %#v\nencoding/json %#v", data, got, want)
			}
			if (doc == nil) != (html == "" && xml == "") {
				t.Fatalf("request %q: document buffer %v for html %q, xml %q", data, doc, html, xml)
			}
			PutDocBuf(doc)
		}
	})
}

// TestEnvelopeFastPathTakesMarshaledLines: the shapes json.Marshal writes
// stay on the fast path, and the fallback shapes leave it, so FuzzEnvelope
// compares two decoders rather than one that always declines.
func TestEnvelopeFastPathTakesMarshaledLines(t *testing.T) {
	var d EnvelopeDecoder
	for _, s := range fastEnvelopes {
		if _, ok := d.decode([]byte(s), new(taskLine)); !ok {
			t.Errorf("fast path declined %q", s)
		}
	}
	for _, s := range fallbackEnvelopes {
		if _, ok := d.decode([]byte(s), new(taskLine)); ok {
			t.Errorf("fast path took %q; it belongs to encoding/json", s)
		}
	}
	if _, _, _, _, _, ok := d.Request([]byte(`{"html":"x","id":""}`)); ok {
		t.Error("Request took a body naming id; the HTTP request type has no such field")
	}
}

// drain reads every task from src.
func drain(t *testing.T, src Source) []*Task {
	t.Helper()
	var tasks []*Task
	for {
		tk, err := src.Next()
		if errors.Is(err, io.EOF) {
			return tasks
		}
		if err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, tk)
	}
}

// TestNDJSONSourceFallbackAnswers pins the NDJSON answer, inline error text
// and Seq included, for each line shape the fast path hands to
// encoding/json, plus the fast-path shapes around them.
func TestNDJSONSourceFallbackAnswers(t *testing.T) {
	cases := []struct {
		line    string
		id      string
		mode    string
		doc     string
		seps    []string
		invalid string
	}{
		{line: `{"HTML":"<p>x</p>","Shard":"s"}`, mode: "html", doc: "<p>x</p>"},
		{line: `{"html":"a","html":"b","id":"1","id":"2"}`, id: "2", mode: "html", doc: "b"},
		{line: `{"id":null,"html":"x","separator_list":null}`, mode: "html", doc: "x"},
		{line: `{"html":"x","separator_list":[]}`, mode: "html", doc: "x", seps: []string{}},
		{line: `{"html":"x","extra":{"k":[1,2]}}`, mode: "html", doc: "x"},
		{line: "{\"html\":\"a\xffb\"}", mode: "html", doc: "a\uFFFDb"},
		{line: `{"html":"\ud800x\udc00"}`, mode: "html", doc: "\uFFFDx\uFFFD"},
		{line: `{"html":"a\u0000\u003c\ud83d\ude00"}`, mode: "html", doc: "a\x00<\U0001F600"},
		{line: `{"html":1}`, invalid: "bad input line: json: cannot unmarshal number into Go struct field taskLine.html of type string"},
		{line: `{"separator_list":[null,1],"html":"x"}`, invalid: "bad input line: json: cannot unmarshal number into Go struct field taskLine.separator_list of type string"},
		{line: `{"html":"x"} trailing`, invalid: "bad input line: invalid character 't' after top-level value"},
		{line: `{"html":"x"`, invalid: "bad input line: unexpected end of JSON input"},
		{line: `{"html":"\u00"}`, invalid: `bad input line: invalid character '"' in \u hexadecimal character escape`},
		{line: "{\"html\":\"a\x01\"}", invalid: "bad input line: invalid character '\\x01' in string literal"},
		{line: `{"html":"x","xml":"y"}`, invalid: "exactly one of html or xml is required"},
		{line: `{"html":null}`, invalid: "exactly one of html or xml is required"},
	}
	var lines []string
	for _, c := range cases {
		lines = append(lines, c.line)
	}
	tasks := drain(t, NewNDJSONSource(strings.NewReader(strings.Join(lines, "\n")), 0))
	if len(tasks) != len(cases) {
		t.Fatalf("got %d tasks, want %d", len(tasks), len(cases))
	}
	for i, c := range cases {
		tk := tasks[i]
		invalid := ""
		if tk.invalid != nil {
			invalid = tk.invalid.Error()
		}
		if tk.Seq != i || tk.ID != c.id || tk.Mode != c.mode || tk.Doc != c.doc ||
			!reflect.DeepEqual(tk.SeparatorList, c.seps) || invalid != c.invalid {
			t.Errorf("line %q:\n got seq=%d id=%q mode=%q doc=%q seps=%#v invalid=%q\nwant seq=%d id=%q mode=%q doc=%q seps=%#v invalid=%q",
				c.line, tk.Seq, tk.ID, tk.Mode, tk.Doc, tk.SeparatorList, invalid,
				i, c.id, c.mode, c.doc, c.seps, c.invalid)
		}
	}
}

// TestNDJSONSourceMaxLineCountsContent: maxLine bounds a line's content, not
// its terminator. A line of exactly maxLine bytes is accepted before "\n",
// before "\r\n" and at EOF; one byte more fails inline and the stream
// continues.
func TestNDJSONSourceMaxLineCountsContent(t *testing.T) {
	line := func(n int) string {
		s := `{"html":"` + strings.Repeat("x", n-len(`{"html":""}`)) + `"}`
		if len(s) != n {
			t.Fatalf("line is %d bytes, want %d", len(s), n)
		}
		return s
	}
	const maxLine = 111
	for _, term := range []string{"\n", "\r\n", ""} {
		exact, over := line(maxLine), line(maxLine+1)
		input := exact + "\n" + over + "\n" + exact + "\r\n" + over + "\r\n" + exact + term
		tasks := drain(t, NewNDJSONSource(strings.NewReader(input), maxLine))
		if len(tasks) != 5 {
			t.Fatalf("terminator %q: got %d tasks, want 5", term, len(tasks))
		}
		for i, tk := range tasks {
			tooLong := tk.invalid != nil && strings.Contains(tk.invalid.Error(), "exceeds the 111-byte limit")
			if wantOver := i%2 == 1; tooLong != wantOver || (!wantOver && tk.invalid != nil) {
				t.Errorf("terminator %q, line %d: invalid = %v, want over-limit %v", term, i, tk.invalid, wantOver)
			}
			if tk.Seq != i {
				t.Errorf("terminator %q, line %d: seq = %d", term, i, tk.Seq)
			}
		}
	}
}

// escapeDenseLine is an NDJSON line as json.Marshal writes it for a page
// of short tags, where every '<' and '>' becomes a six-byte \u escape, plus
// the document it decodes to.
func escapeDenseLine(t testing.TB, size int) (line []byte, doc string) {
	var b strings.Builder
	for b.Len() < size {
		b.WriteString("<tr><td><b>Name</b> &amp; <i>note</i></td></tr>\n")
	}
	doc = b.String()
	line, err := json.Marshal(taskLine{ID: "dense", HTML: doc, Shard: "obituary"})
	if err != nil {
		t.Fatal(err)
	}
	return line, doc
}

// TestNDJSONSourceAllocsNearDocumentSize: once warm, NDJSONSource.Next on an
// escape-dense ~8 KB line allocates little beyond the decoded document —
// the line buffer and the unescape scratch are reused. A caller that hands
// each task's document buffer back, as the engine does, allocates only the
// task and its small fields.
func TestNDJSONSourceAllocsNearDocumentSize(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	line, doc := escapeDenseLine(t, 8000)
	// perLine is the fewest bytes per line over three rounds: a round in
	// which the goroutine changed processors between handing a buffer back
	// and taking one out misses the pool once, which is not the steady
	// state being bounded.
	perLine := func(t *testing.T, handBack bool) float64 {
		const warm, rounds, runs = 4, 3, 64
		input := bytes.Repeat(append(line, '\n'), warm+rounds*(1+runs))
		src := NewNDJSONSource(bytes.NewReader(input), 0)
		next := func() {
			tk, err := src.Next()
			if err != nil || tk.invalid != nil || tk.Doc != doc {
				t.Fatalf("Next = %v, %v", tk.invalid, err)
			}
			if handBack {
				PutDocBuf(tk.docBuf)
			}
		}
		for i := 0; i < warm; i++ {
			next()
		}
		least := math.Inf(1)
		for r := 0; r < rounds; r++ {
			var before, after runtime.MemStats
			runtime.GC()
			next() // the collection emptied the buffer pool: refill it
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				next()
			}
			runtime.ReadMemStats(&after)
			least = math.Min(least, float64(after.TotalAlloc-before.TotalAlloc)/runs)
		}
		return least
	}
	t.Run("Kept", func(t *testing.T) {
		if got, limit := perLine(t, false), 1.25*float64(len(doc)); got > limit {
			t.Errorf("Next allocates %.0f bytes per %d-byte document, want <= %.0f", got, len(doc), limit)
		}
	})
	t.Run("HandedBack", func(t *testing.T) {
		// Measured 160 bytes: the Task and its id and shard strings.
		const ceiling = 192
		if got := perLine(t, true); got > ceiling {
			t.Errorf("Next allocates %.0f bytes per %d-byte document handed back, ceiling %d", got, len(doc), ceiling)
		}
	})
}

// BenchmarkNDJSONSource decodes corpus pages, written by json.Marshal the
// way a bulk client writes them, through NDJSONSource.Next. MB/s counts
// NDJSON input bytes.
func BenchmarkNDJSONSource(b *testing.B) {
	var input []byte
	for _, d := range corpus.TestDocuments() {
		line, err := json.Marshal(taskLine{
			ID: d.Site.Name, HTML: d.HTML, Ontology: string(d.Site.Domain), Shard: string(d.Site.Domain),
		})
		if err != nil {
			b.Fatal(err)
		}
		input = append(append(input, line...), '\n')
	}
	b.SetBytes(int64(len(input)))
	b.ReportAllocs()
	r := bytes.NewReader(input)
	for i := 0; i < b.N; i++ {
		r.Reset(input)
		src := NewNDJSONSource(r, 0)
		for {
			tk, err := src.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil || tk.invalid != nil {
				b.Fatal(err, tk.invalid)
			}
		}
	}
}
