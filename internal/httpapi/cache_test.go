package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/paperdoc"
)

// cachedServer boots the full handler (middleware + metrics) with the
// result cache enabled.
func cachedServer(t *testing.T, cacheSize int) (*httptest.Server, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	srv := httptest.NewServer(NewHandler(Config{Metrics: reg, CacheSize: cacheSize}))
	t.Cleanup(srv.Close)
	return srv, reg
}

func metricValue(t *testing.T, reg *obs.Registry, line string) bool {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return strings.Contains(b.String(), line)
}

func TestDiscoverServedFromCache(t *testing.T) {
	srv, reg := cachedServer(t, 8)
	body := map[string]any{"html": paperdoc.Figure2, "ontology": "obituary"}

	var first, second map[string]json.RawMessage
	for i, out := range []*map[string]json.RawMessage{&first, &second} {
		resp, decoded := post(t, srv, "/v1/discover", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d", i, resp.StatusCode)
		}
		*out = decoded
	}
	if str(t, first["separator"]) != "hr" || str(t, second["separator"]) != "hr" {
		t.Fatalf("separators = %s, %s", first["separator"], second["separator"])
	}
	if !bytes.Equal(first["scores"], second["scores"]) {
		t.Error("cached response differs from computed response")
	}
	if !metricValue(t, reg, "boundary_cache_hits_total 1") {
		t.Error("second identical request did not hit the cache")
	}
	if !metricValue(t, reg, "boundary_cache_misses_total 1") {
		t.Error("first request should be the only miss")
	}
	if !metricValue(t, reg, "boundary_cache_entries 1") {
		t.Error("entry gauge should be 1")
	}
}

// TestCacheKeyDiscriminatesOptions: same document but different options must
// not share a cache slot.
func TestCacheKeyDiscriminatesOptions(t *testing.T) {
	srv, reg := cachedServer(t, 8)
	doc := "<div><hr><b>A</b> one<hr><b>B</b> two<hr><b>C</b> three</div>"
	bodies := []map[string]any{
		{"html": doc},
		{"html": doc, "ontology": "obituary"},
		{"html": doc, "separator_list": []string{"b"}},
		{"xml": doc},
	}
	for i, body := range bodies {
		if resp, decoded := post(t, srv, "/v1/discover", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("variant %d: status %d: %s", i, resp.StatusCode, decoded["error"])
		}
	}
	if !metricValue(t, reg, fmt.Sprintf("boundary_cache_misses_total %d", len(bodies))) {
		t.Error("every distinct option set should miss")
	}
	if metricValue(t, reg, "boundary_cache_hits_total") {
		t.Error("no variant should hit another's entry")
	}
}

func TestCacheEviction(t *testing.T) {
	srv, reg := cachedServer(t, 1)
	for i := 0; i < 3; i++ {
		doc := fmt.Sprintf("<div><hr><b>A%d</b> one<hr><b>B</b> two<hr></div>", i)
		if resp, decoded := post(t, srv, "/v1/discover", map[string]any{"html": doc}); resp.StatusCode != 200 {
			t.Fatalf("doc %d: status %d: %s", i, resp.StatusCode, decoded["error"])
		}
	}
	if !metricValue(t, reg, "boundary_cache_evictions_total 2") {
		t.Error("capacity-1 cache should have evicted twice")
	}
	if !metricValue(t, reg, "boundary_cache_entries 1") {
		t.Error("entry gauge should stay at capacity")
	}
}

// TestCacheConcurrentDiscover hammers one cached document from many
// goroutines — with -race this exercises the LRU and metric paths under
// concurrent discover requests.
func TestCacheConcurrentDiscover(t *testing.T) {
	srv, _ := cachedServer(t, 8)
	data, err := json.Marshal(map[string]any{"html": paperdoc.Figure2, "ontology": "obituary"})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				resp, err := http.Post(srv.URL+"/v1/discover", "application/json", bytes.NewReader(data))
				if err != nil {
					t.Error(err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"separator":"hr"`)) {
					t.Errorf("status %d body %.120s", resp.StatusCode, body)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// postJSONRaw posts body and returns the raw response bytes, for
// byte-identity assertions.
func postJSONRaw(t *testing.T, srv *httptest.Server, body map[string]any) []byte {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/discover", "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

func TestDiscoverUncachedStillWorks(t *testing.T) {
	// A zero Config has no result cache; discovery must be unaffected.
	srv := newServer(t)
	resp, body := post(t, srv, "/v1/discover", map[string]any{"html": paperdoc.Figure2})
	if resp.StatusCode != http.StatusOK || str(t, body["separator"]) != "hr" {
		t.Fatalf("status = %d, separator = %s", resp.StatusCode, body["separator"])
	}
}
