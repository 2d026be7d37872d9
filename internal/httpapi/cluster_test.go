package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/membership"
)

// TestClusterGossipOverHTTP runs the real join flow over the wire: a seed
// node mounted on an httptest server, a joiner gossiping to it through
// HTTPTransport, and the member table served at /v1/cluster/members.
func TestClusterGossipOverHTTP(t *testing.T) {
	transport := &membership.HTTPTransport{Client: &http.Client{Timeout: 2 * time.Second}}

	seedNode, err := membership.New(membership.Config{
		Name: "seed", Addr: "seed-addr", // rewritten below once the listener exists
		Interval:  50 * time.Millisecond,
		Transport: transport,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer seedNode.Close()
	seedSrv := httptest.NewServer(NewHandler(Config{Membership: seedNode}))
	defer seedSrv.Close()

	joiner, err := membership.New(membership.Config{
		Name: "joiner", Addr: "joiner-addr",
		Seeds:     []string{seedSrv.URL},
		Interval:  50 * time.Millisecond,
		Transport: transport,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	if err := joiner.Join(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Both sides now know both members.
	if got := len(joiner.Members()); got != 2 {
		t.Fatalf("joiner knows %d members, want 2", got)
	}
	resp, err := http.Get(seedSrv.URL + "/v1/cluster/members")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("members status %d", resp.StatusCode)
	}
	var body struct {
		Digest  string              `json:"digest"`
		Members []membership.Member `json:"members"`
		Serving []membership.Member `json:"serving"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Members) != 2 || len(body.Serving) != 2 {
		t.Fatalf("member table %d/%d entries, want 2/2", len(body.Members), len(body.Serving))
	}
	names := []string{body.Members[0].Name, body.Members[1].Name}
	if names[0] != "joiner" || names[1] != "seed" {
		t.Fatalf("member names %v, want sorted [joiner seed]", names)
	}
	if body.Digest == "" {
		t.Fatal("member table carries no digest")
	}
}

func TestClusterRoutesWithoutMembershipAnswer503(t *testing.T) {
	h := NewHandler(Config{})
	for _, probe := range []struct{ method, path, body string }{
		{http.MethodPost, membership.GossipPath, `{"from":"x"}`},
		{http.MethodPost, membership.JoinPath, `{"from":"x"}`},
		{http.MethodGet, "/v1/cluster/members", ""},
	} {
		req := httptest.NewRequest(probe.method, probe.path, strings.NewReader(probe.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s %s: status %d, want 503", probe.method, probe.path, w.Code)
		}
	}
}

// TestClusterGossipBypassesShedding pins the load-shed exemption: with the
// in-flight limit saturated, /v1/discover sheds with 429 but a gossip
// heartbeat still answers 200 — load alone must never read as a dead peer.
func TestClusterGossipBypassesShedding(t *testing.T) {
	node, err := membership.New(membership.Config{
		Name: "n", Addr: "a",
		Transport: &membership.HTTPTransport{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	faults := faultinject.New()
	faults.Inject("httpapi/discover", faultinject.Fault{Delay: time.Second, Times: 1})
	h := NewHandler(Config{Membership: node, MaxInFlight: 1, Faults: faults})

	// Saturate the single in-flight slot; the hook fires after the
	// semaphore is acquired, so one firing means the slot is held.
	done := make(chan struct{})
	go func() {
		defer close(done)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/discover",
			strings.NewReader(`{"html":"<html><body><hr><hr></body></html>"}`)))
	}()
	deadline := time.Now().Add(5 * time.Second)
	for faults.Fired("httpapi/discover") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never acquired the in-flight slot")
		}
		time.Sleep(time.Millisecond)
	}

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/discover",
		strings.NewReader(`{"html":"<p>shed me</p>"}`)))
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("discover under saturation: status %d, want 429", w.Code)
	}

	msg, _ := json.Marshal(membership.Message{From: "peer"})
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, membership.GossipPath, strings.NewReader(string(msg))))
	if w.Code != http.StatusOK {
		t.Fatalf("gossip under saturation: status %d, want 200", w.Code)
	}

	<-done
}
