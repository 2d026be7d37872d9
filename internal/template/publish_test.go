package template

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

func TestPublisherDeliversToAllTargets(t *testing.T) {
	var mu sync.Mutex
	got := map[string][]string{}
	mkPeer := func(name string) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/v1/template/publish" {
				t.Errorf("peer %s: unexpected path %s", name, r.URL.Path)
			}
			var e Entry
			if err := json.NewDecoder(r.Body).Decode(&e); err != nil {
				t.Errorf("peer %s: bad body: %v", name, err)
			}
			mu.Lock()
			got[name] = append(got[name], e.Key)
			mu.Unlock()
		}))
	}
	p1, p2 := mkPeer("p1"), mkPeer("p2")
	defer p1.Close()
	defer p2.Close()

	reg := obs.NewRegistry()
	pub := NewPublisher(PublisherConfig{Metrics: reg})
	pub.SetTargets([]string{p1.URL, p2.URL})
	e := testEntry("<html><body><hr><hr></body></html>", 0.99)
	pub.Publish(e)
	pub.Close() // drains

	mu.Lock()
	defer mu.Unlock()
	for _, name := range []string{"p1", "p2"} {
		if len(got[name]) != 1 || got[name][0] != e.Key {
			t.Errorf("peer %s received %v, want [%s]", name, got[name], e.Key)
		}
	}
	if v := reg.Counter("boundary_template_publishes_total", "", "outcome", "ok").Value(); v != 2 {
		t.Errorf("ok publishes = %v, want 2", v)
	}
}

func TestPublisherFaultAndErrorOutcomes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer srv.Close()

	reg := obs.NewRegistry()
	faults := faultinject.New()
	pub := NewPublisher(PublisherConfig{Metrics: reg, Faults: faults})
	pub.SetTargets([]string{srv.URL})

	faults.Inject(FaultPublish, faultinject.Fault{Err: errors.New("network down"), Times: 1})
	pub.Publish(testEntry("<html><body><hr><hr></body></html>", 0.99)) // faulted
	pub.Publish(testEntry("<html><body><p><p></body></html>", 0.99))   // 500 from peer
	pub.Close()

	if v := reg.Counter("boundary_template_publishes_total", "", "outcome", "error").Value(); v != 2 {
		t.Errorf("error publishes = %v, want 2", v)
	}
	if v := reg.Counter("boundary_template_publishes_total", "", "outcome", "ok").Value(); v != 0 {
		t.Errorf("ok publishes = %v, want 0", v)
	}
	if faults.Fired(FaultPublish) != 2 {
		t.Errorf("publish hook fired %d times, want 2", faults.Fired(FaultPublish))
	}
}

func TestPublisherDropsWhenClosed(t *testing.T) {
	reg := obs.NewRegistry()
	pub := NewPublisher(PublisherConfig{Metrics: reg})
	pub.Close()
	pub.Publish(testEntry("<html><body><hr><hr></body></html>", 0.99))
	if v := reg.Counter("boundary_template_publishes_total", "", "outcome", "dropped").Value(); v != 1 {
		t.Errorf("dropped = %v, want 1", v)
	}
	pub.Close() // idempotent
}

func TestStoreOnStoreWiresPublisher(t *testing.T) {
	var mu sync.Mutex
	var received []string
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var e Entry
		json.NewDecoder(r.Body).Decode(&e)
		mu.Lock()
		received = append(received, e.Key)
		mu.Unlock()
	}))
	defer peer.Close()

	pub := NewPublisher(PublisherConfig{})
	pub.SetTargets([]string{peer.URL})
	s, _ := Open(Config{})
	defer s.Close()
	s.OnStore = pub.Publish

	e := testEntry("<html><body><hr><hr></body></html>", 0.99)
	s.Put(e)
	absorbed := testEntry("<html><body><p><p></body></html>", 0.99)
	s.Absorb(absorbed) // must NOT publish
	pub.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(received) != 1 || received[0] != e.Key {
		t.Fatalf("peer received %v, want only the locally-learned %s", received, e.Key)
	}
}
