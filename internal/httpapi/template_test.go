package httpapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/tagtree"
	"repro/internal/template"
)

// serveDiscover answers one /v1/discover request for an HTML document in
// process.
func serveDiscover(t *testing.T, h http.Handler, doc string) (int, string) {
	t.Helper()
	body, err := json.Marshal(map[string]string{"html": doc})
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/discover", strings.NewReader(string(body))))
	return w.Code, w.Body.String()
}

// nested wraps doc's body content in n nested <div>s, which leaves the
// highest-fan-out region, and so the template fingerprint, unchanged.
func nested(doc string, n int) string {
	return strings.Replace(strings.Replace(doc,
		"<body>", "<body>"+strings.Repeat("<div>", n), 1),
		"</body>", strings.Repeat("</div>", n)+"</body>", 1)
}

// TestTemplateHitHonorsLimits checks that a learned page shape does not
// carry a document past the parse limits: a same-shape document over the
// byte, depth or node limit gets the status and body a node without a
// wrapper store gives it, not the stored answer.
func TestTemplateHitHonorsLimits(t *testing.T) {
	hrPage := "<html><body><div><hr><b>A</b> x<hr><b>B</b> y<hr><b>C</b> z<hr></div></body></html>"
	tablePage := "<html><body><table><tr><td>A one</td></tr><tr><td>B two</td></tr>" +
		"<tr><td>C three</td></tr><tr><td>D four</td></tr></table></body></html>"
	for _, tc := range []struct {
		name           string
		limits         tagtree.Limits
		learned, probe string
		status         int
	}{
		{"bytes", tagtree.Limits{MaxBytes: 300}, hrPage,
			strings.Replace(hrPage, "A</b> x", "A</b> x"+strings.Repeat(" pad", 60), 1),
			http.StatusRequestEntityTooLarge},
		{"depth", tagtree.Limits{MaxDepth: 20}, tablePage, nested(tablePage, 40),
			http.StatusUnprocessableEntity},
		{"nodes", tagtree.Limits{MaxNodes: 30}, hrPage, nested(hrPage, 40),
			http.StatusUnprocessableEntity},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if template.FingerprintDoc(tc.probe) != template.FingerprintDoc(tc.learned) {
				t.Fatal("probe and learned page differ in shape; the test proves nothing")
			}
			store, err := template.Open(template.Config{Metrics: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			h := NewHandler(Config{Templates: store, Limits: tc.limits})
			for i := 0; i < 2; i++ {
				if code, body := serveDiscover(t, h, tc.learned); code != http.StatusOK {
					t.Fatalf("learned page = %d %s", code, body)
				}
			}
			if st := store.Stats(); st.Stores != 1 || st.Hits != 1 {
				t.Fatalf("store stats after learning %+v, want 1 store and 1 hit", st)
			}

			code, body := serveDiscover(t, h, tc.probe)
			wantCode, wantBody := serveDiscover(t, NewHandler(Config{Limits: tc.limits}), tc.probe)
			if wantCode != tc.status {
				t.Fatalf("without a store the probe answers %d %s, want %d", wantCode, wantBody, tc.status)
			}
			if code != wantCode || body != wantBody {
				t.Errorf("with a store the probe answers %d %s\nwithout one %d %s", code, body, wantCode, wantBody)
			}
			if hits := store.Stats().Hits; hits != 1 {
				t.Errorf("the probe was looked up as a hit (hits %v, want 1)", hits)
			}
		})
	}
}

// TestTemplateHitFilesDocumentMetrics checks that a /v1/discover answered
// from the wrapper store is filed like any other discovered document: one
// boundary_documents_total{outcome="ok"} per document and one
// stage="template/hit" observation per hit, as core files its own hits.
func TestTemplateHitFilesDocumentMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	store, err := template.Open(template.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	h := NewHandler(Config{Templates: store, Metrics: reg})
	for i := 0; i < 3; i++ {
		doc := fmt.Sprintf("<div><hr><b>item %d</b> x<hr><b>B</b> y<hr><b>C</b> z<hr></div>", i)
		if code, body := serveDiscover(t, h, doc); code != http.StatusOK {
			t.Fatalf("document %d = %d %s", i, code, body)
		}
	}
	if hits := store.Stats().Hits; hits != 2 {
		t.Fatalf("template hits = %v, want 2", hits)
	}
	if got := reg.Counter("boundary_documents_total", "", "outcome", "ok").Value(); got != 3 {
		t.Errorf(`boundary_documents_total{outcome="ok"} = %v, want 3`, got)
	}
	if got := reg.Histogram("boundary_stage_duration_seconds", "", obs.StageBuckets,
		"stage", "template/hit").Count(); got != 2 {
		t.Errorf(`boundary_stage_duration_seconds{stage="template/hit"} count = %d, want 2`, got)
	}
}
