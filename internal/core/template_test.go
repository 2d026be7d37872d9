package core

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/tagtree"
	"repro/internal/template"
)

const templateDoc = `<html><body>
<h1>Listings</h1>
<hr><p>Alpha listing, phone 555-1234</p>
<hr><p>Beta listing, phone 555-2345</p>
<hr><p>Gamma listing, phone 555-3456</p>
<hr><p>Delta listing, phone 555-4567</p>
</body></html>`

func openTemplateStore(t *testing.T, cfg template.Config) (*template.Store, *obs.Registry) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	s, err := template.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, cfg.Metrics
}

func docKey(doc, salt string) template.Key {
	return template.MakeKey(template.FingerprintDoc(doc), salt)
}

func TestDiscoverTemplateFastPath(t *testing.T) {
	store, _ := openTemplateStore(t, template.Config{})
	salt := template.Salt("html", "", nil)
	opts := Options{Templates: store, TemplateSalt: salt}

	cold, err := Discover(templateDoc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Misses != 1 || st.Stores != 1 {
		t.Fatalf("after cold run: %+v", st)
	}

	warm, err := Discover(templateDoc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits != 1 {
		t.Fatalf("after warm run: %+v", st)
	}

	// The warm answer must be indistinguishable on every stored dimension.
	key := docKey(templateDoc, salt)
	if !NewTemplateEntry(key, cold).Equal(NewTemplateEntry(key, warm)) {
		t.Fatalf("warm result diverged:\ncold %+v\nwarm %+v", cold, warm)
	}
	if warm.Tree == nil || warm.Subtree == nil {
		t.Fatal("warm result lost the real tree")
	}
	// Record splitting must work off the served result's real nodes.
	coldRecs, warmRecs := Split(templateDoc, cold), Split(templateDoc, warm)
	if len(coldRecs) != len(warmRecs) || len(warmRecs) == 0 {
		t.Fatalf("split: cold %d records, warm %d", len(coldRecs), len(warmRecs))
	}
	for i := range coldRecs {
		if coldRecs[i] != warmRecs[i] {
			t.Fatalf("record %d differs:\ncold %q\nwarm %q", i, coldRecs[i], warmRecs[i])
		}
	}
}

func TestDiscoverTemplateSaltSeparatesOptions(t *testing.T) {
	store, _ := openTemplateStore(t, template.Config{})
	base := Options{Templates: store, TemplateSalt: template.Salt("html", "", nil)}
	if _, err := Discover(templateDoc, base); err != nil {
		t.Fatal(err)
	}
	// Different separator list → different salt → no cross-option hit.
	alt := Options{
		Templates:     store,
		TemplateSalt:  template.Salt("html", "", []string{"p"}),
		SeparatorList: []string{"p"},
	}
	if _, err := Discover(templateDoc, alt); err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits != 0 || st.Misses != 2 || st.Stores != 2 {
		t.Fatalf("salted options should miss each other's entries: %+v", st)
	}
}

func TestDiscoverTemplateSpotCheckDivergenceRelearns(t *testing.T) {
	reg := obs.NewRegistry()
	store, _ := openTemplateStore(t, template.Config{SpotCheckEvery: 1, Metrics: reg})
	salt := template.Salt("html", "", nil)
	opts := Options{Templates: store, TemplateSalt: salt}

	if _, err := Discover(templateDoc, opts); err != nil {
		t.Fatal(err)
	}
	// Poison the stored answer: same key, wrong separator — as if the
	// template drifted since it was learned.
	key := docKey(templateDoc, salt)
	poisoned, ok := store.Lookup(key)
	if !ok {
		t.Fatal("entry missing after learn")
	}
	poisoned.Separator = "p"
	poisoned.TopTags = []string{"p"}
	if err := store.Put(poisoned); err != nil {
		t.Fatal(err)
	}

	// Every hit spot-checks; the fresh answer diverges from the poisoned
	// entry, which must still be served correctly and be relearned.
	res, err := Discover(templateDoc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Separator != "hr" {
		t.Fatalf("spot-checked request served stale separator %q", res.Separator)
	}
	if v := reg.Counter("boundary_template_spot_checks_total", "", "outcome", "divergent").Value(); v != 1 {
		t.Fatalf("divergent spot-checks = %v, want 1", v)
	}
	if v := reg.Counter("boundary_template_drift_total", "", "reason", "divergent").Value(); v != 1 {
		t.Fatalf("divergent drift evictions = %v, want 1", v)
	}
	healed, ok := store.Lookup(key)
	if !ok || healed.Separator != "hr" {
		t.Fatalf("store not relearned: %+v ok=%v", healed, ok)
	}
}

func TestDiscoverTemplateSubtreeMismatchFallsBack(t *testing.T) {
	reg := obs.NewRegistry()
	store, _ := openTemplateStore(t, template.Config{Metrics: reg})
	salt := template.Salt("html", "", nil)
	opts := Options{Templates: store, TemplateSalt: salt}

	if _, err := Discover(templateDoc, opts); err != nil {
		t.Fatal(err)
	}
	key := docKey(templateDoc, salt)
	e, _ := store.Lookup(key)
	e.Subtree = "table" // wrong fan-out winner for this shape
	if err := store.Put(e); err != nil {
		t.Fatal(err)
	}

	res, err := Discover(templateDoc, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Separator != "hr" {
		t.Fatalf("mismatched entry served: separator %q", res.Separator)
	}
	if v := reg.Counter("boundary_template_drift_total", "", "reason", "subtree_mismatch").Value(); v != 1 {
		t.Fatalf("subtree_mismatch drift = %v, want 1", v)
	}
	healed, ok := store.Lookup(key)
	if !ok || healed.Subtree != "body" {
		t.Fatalf("store not relearned after mismatch: %+v ok=%v", healed, ok)
	}
}

func TestDiscoverXMLTemplateFastPath(t *testing.T) {
	store, _ := openTemplateStore(t, template.Config{})
	salt := template.Salt("xml", "", nil)
	opts := Options{Templates: store, TemplateSalt: salt}

	xml := `<feed><entry><title>a</title></entry><entry><title>b</title></entry><entry><title>c</title></entry></feed>`
	cold, err := DiscoverXML(xml, opts)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := DiscoverXML(xml, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := store.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("xml fast path: %+v", st)
	}
	fp, _ := template.FingerprintTree(tagtree.ParseXML(xml))
	key := template.MakeKey(fp, salt)
	if !NewTemplateEntry(key, cold).Equal(NewTemplateEntry(key, warm)) {
		t.Fatal("xml warm result diverged")
	}
}

// TestTemplateEntryOwnsItsStrings: an entry learned from DiscoverBytes must
// not alias the caller's bytes. Tag names outside the HTML atom table, and
// every XML name, are zero-copy views of the document; overwriting the
// document after discovery must leave the stored entry intact.
func TestTemplateEntryOwnsItsStrings(t *testing.T) {
	listing := "<div>" + strings.Repeat("<rec>Name: one record of the listing, phone 555-1234</rec>\n", 6) + "</div>"
	for _, tc := range []struct {
		mode     string
		doc      string
		discover func(context.Context, []byte, Options) (*Result, error)
	}{
		{"html", "<html><body>" + listing + "</body></html>", DiscoverBytesContext},
		{"xml", "<feed>" + listing + "</feed>", DiscoverXMLBytesContext},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			store, _ := openTemplateStore(t, template.Config{})
			salt := template.Salt(tc.mode, "", nil)
			doc := []byte(tc.doc)
			res, err := tc.discover(context.Background(), doc, Options{Templates: store, TemplateSalt: salt})
			if err != nil {
				t.Fatal(err)
			}
			if res.Separator != "rec" {
				t.Fatalf("separator %q, want rec", res.Separator)
			}
			fp, _ := template.FingerprintTree(res.Tree)
			key := template.MakeKey(fp, salt)
			for i := range doc {
				doc[i] = '#'
			}
			e, ok := store.Lookup(key)
			if !ok {
				t.Fatal("nothing learned")
			}
			raw, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			if e.Separator != "rec" || e.Subtree != "div" || bytes.ContainsRune(raw, '#') {
				t.Errorf("stored entry reads the reused document: %s", raw)
			}
		})
	}
}
