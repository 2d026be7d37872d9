package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// serveBody posts body to path on h and returns the status and raw reply.
func serveBody(h http.Handler, path, body string) (int, string) {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// TestDiscoverDecodeFallbackAnswers pins the /v1/discover status and error
// for each body shape the envelope decoder's fast path hands to
// encoding/json: case-folded, unknown, duplicate and null keys, non-string
// values, trailing bytes, malformed and oversized bodies.
func TestDiscoverDecodeFallbackAnswers(t *testing.T) {
	const exactlyOne = "exactly one of html or xml is required"
	cases := []struct {
		name   string
		body   string
		status int
		err    string
	}{
		{"bulk id", `{"html":"x","id":"a"}`, 400, `bad request body: json: unknown field "id"`},
		{"empty shard", `{"shard":"","html":"x"}`, 400, `bad request body: json: unknown field "shard"`},
		{"unknown field", `{"html":"x","extra":1}`, 400, `bad request body: json: unknown field "extra"`},
		{"case-folded keys", `{"HTML":"x","Xml":"y"}`, 400, exactlyOne},
		{"duplicate key", `{"html":"a","html":""}`, 400, exactlyOne},
		{"null values", `{"html":null,"xml":null}`, 400, exactlyOne},
		{"lone surrogate", `{"html":"\ud800","xml":"y"}`, 400, exactlyOne},
		{"invalid UTF-8", "{\"html\":\"\xff\",\"xml\":\"y\"}", 400, exactlyOne},
		{"number value", `{"html":1}`, 400, "bad request body: json: cannot unmarshal number into Go struct field request.html of type string"},
		{"trailing bytes", `{"html":"x","xml":"y"} trailing`, 400, exactlyOne},
		{"second object", `{"html":"x","xml":"y"}{"html":1}`, 400, exactlyOne},
		{"empty body", ``, 400, "bad request body: EOF"},
		{"truncated", `{"html":"x"`, 400, "bad request body: unexpected EOF"},
		{"bad escape", `{"html":"\q"}`, 400, `bad request body: invalid character 'q' in string escape code`},
		{"array", `[1]`, 400, "bad request body: json: cannot unmarshal array into Go value of type httpapi.request"},
		{"oversized", `{"html":"` + strings.Repeat("x", MaxBodyBytes) + `"}`, 413,
			"request body exceeds the 8388608-byte limit"},
		{"object inside the limit, overflow after it", `{"html":"x","xml":"y"}` + strings.Repeat(" ", MaxBodyBytes), 400, exactlyOne},
	}
	h := NewHandler(Config{})
	for _, c := range cases {
		status, reply := serveBody(h, "/v1/discover", c.body)
		var body errorBody
		if err := json.Unmarshal([]byte(reply), &body); err != nil {
			t.Fatalf("%s: reply %q: %v", c.name, reply, err)
		}
		if status != c.status || body.Error != c.err {
			t.Errorf("%s: got %d %q, want %d %q", c.name, status, body.Error, c.status, c.err)
		}
	}
}

// TestDiscoverDecodePathsAnswerAlike: a body the fast path takes and the
// same request in a shape only encoding/json takes get byte-identical
// replies.
func TestDiscoverDecodePathsAnswerAlike(t *testing.T) {
	const doc = `<div><hr><b>A</b> x &amp; y<hr><b>B</b> y<hr><b>C</b> z<hr></div>`
	fast, err := json.Marshal(request{HTML: doc, SeparatorList: []string{"hr"}})
	if err != nil {
		t.Fatal(err)
	}
	h := NewHandler(Config{})
	status, want := serveBody(h, "/v1/discover", string(fast))
	if status != http.StatusOK {
		t.Fatalf("fast-path body: status %d: %s", status, want)
	}
	folded := strings.Replace(string(fast), `"html"`, `"HTML"`, 1)
	for _, body := range []string{folded, string(fast) + " trailing", string(fast) + strings.Repeat(" ", MaxBodyBytes)} {
		if status, got := serveBody(h, "/v1/discover", body); status != http.StatusOK || got != want {
			t.Errorf("body %.40q...: got %d %s, want 200 %s", body, status, got, want)
		}
	}
}
