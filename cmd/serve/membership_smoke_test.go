package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// memberNode is one serve process (run() in a goroutine) in a gossip fleet.
type memberNode struct {
	name   string
	addr   string
	buf    *lockedBuffer
	cancel context.CancelFunc
	done   chan error
}

// startMemberNode boots one node of a gossip-managed fleet on an ephemeral
// port, with its wrapper store rooted in dir.
func startMemberNode(t *testing.T, name, dir string, seeds ...string) *memberNode {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	buf := &lockedBuffer{}
	args := []string{
		"-addr", "127.0.0.1:0",
		"-node-name", name,
		"-gossip-interval", "25ms",
		"-wrapper-store", filepath.Join(dir, "wrappers.ndjson"),
		"-shutdown-timeout", "2s",
	}
	if len(seeds) > 0 {
		args = append(args, "-join", strings.Join(seeds, ","))
	}
	done := make(chan error, 1)
	go func() { done <- run(ctx, args, buf) }()
	n := &memberNode{name: name, buf: buf, cancel: cancel, done: done}
	n.addr = waitFor(t, buf, `service listening on ([0-9.:]+)`)
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Errorf("%s: run did not return during cleanup", name)
		}
	})
	return n
}

// stop shuts the node down gracefully (leave broadcast + drain) and reports
// run()'s error.
func (n *memberNode) stop(t *testing.T) {
	t.Helper()
	n.cancel()
	select {
	case err := <-n.done:
		n.done <- nil // keep the cleanup drain from blocking
		if err != nil {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Logf("goroutines at failure:\n%s", buf)
			t.Fatalf("%s: run returned %v", n.name, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: run did not return after cancel", n.name)
	}
}

// servingCount reads /v1/cluster/members and returns how many members the
// node currently serves traffic with.
func servingCount(t *testing.T, addr string) int {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/cluster/members")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	var body struct {
		Serving []struct{ Name string } `json:"serving"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return -1
	}
	return len(body.Serving)
}

// waitServing polls every node until each serves exactly n members.
func waitServing(t *testing.T, nodes []*memberNode, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, node := range nodes {
			if servingCount(t, node.addr) != n {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, node := range nodes {
		t.Logf("%s serves %d members", node.name, servingCount(t, node.addr))
	}
	t.Fatalf("fleet never converged on %d serving members", n)
}

// metricValue scrapes one counter/gauge value from a node's /metrics.
func metricValue(t *testing.T, addr, metric string) float64 {
	t.Helper()
	_, body := get(t, "http://"+addr+"/metrics")
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(metric) + ` ([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		return 0
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: bad value %q", metric, m[1])
	}
	return v
}

// TestMembershipSmoke is the end-to-end membership acceptance run, and what
// `make membership-smoke` executes under -race: boot a seed, join two more
// nodes (each with its own, empty wrapper store), prove every node answers
// byte-identically, then kill one node and restart it under the same name —
// it must rejoin, refute its stale record, come back warm from its own
// wrapper-store journal, and answer the same bytes again.
func TestMembershipSmoke(t *testing.T) {
	docs := make([]string, 12)
	for i := range docs {
		docs[i] = fmt.Sprintf(
			`{"html":"<div><hr><b>item %d</b> alpha<hr><b>more</b> beta<hr><b>tail</b> gamma</div>"}`, i)
	}

	dirA, dirB, dirC := t.TempDir(), t.TempDir(), t.TempDir()
	a := startMemberNode(t, "node-a", dirA)
	b := startMemberNode(t, "node-b", dirB, a.addr)
	c := startMemberNode(t, "node-c", dirC, a.addr)
	fleet := []*memberNode{a, b, c}
	waitServing(t, fleet, 3)

	// Reference pass through the seed: each owner learns the page shape on
	// the first document it owns (journaled in its own store) and fills its
	// cache.
	reference := make(map[string]string, len(docs))
	for _, doc := range docs {
		code, body := post(t, "http://"+a.addr+"/v1/discover", doc)
		if code != http.StatusOK {
			t.Fatalf("reference discover = %d %q", code, body)
		}
		reference[doc] = body
	}

	// Byte-identical from every member: the ring routes each document to
	// the same owner no matter which node fields the request.
	for _, node := range []*memberNode{b, c} {
		for _, doc := range docs {
			code, body := post(t, "http://"+node.addr+"/v1/discover", doc)
			if code != http.StatusOK || body != reference[doc] {
				t.Fatalf("%s answered differently (code %d):\n got %q\nwant %q",
					node.name, code, body, reference[doc])
			}
		}
	}
	if got := metricValue(t, a.addr, `boundary_membership_members{state="alive"}`); got != 3 {
		t.Errorf(`boundary_membership_members{state="alive"} = %v on the seed, want 3`, got)
	}

	// node-b learned the shape itself, so the warmth checked after its
	// restart can only come from its own journal.
	if stores := metricValue(t, b.addr, "boundary_template_stores_total"); stores < 1 {
		t.Fatalf("node-b stored %v wrappers before the kill, want >= 1", stores)
	}

	// Kill node-b and let the survivors converge on a 2-member fleet.
	b.stop(t)
	waitServing(t, []*memberNode{a, c}, 2)
	for _, doc := range docs[:3] {
		if code, body := post(t, "http://"+c.addr+"/v1/discover", doc); code != http.StatusOK ||
			body != reference[doc] {
			t.Fatalf("2-member fleet answered differently (code %d): %q", code, body)
		}
	}

	// Restart under the same name: rejoin (refuting the stale record) and
	// warm the wrapper store from its own journal. The result cache starts
	// empty.
	b2 := startMemberNode(t, "node-b", dirB, a.addr)
	fleet = []*memberNode{a, b2, c}
	waitServing(t, fleet, 3)

	for _, doc := range docs {
		code, body := post(t, "http://"+b2.addr+"/v1/discover", doc)
		if code != http.StatusOK || body != reference[doc] {
			t.Fatalf("restarted node-b answered differently (code %d):\n got %q\nwant %q",
				code, body, reference[doc])
		}
	}
	// The documents node-b owns missed its empty result cache and were
	// answered off the template fast path: its own journal brought it back
	// warm, and no document it computed ran the heuristics for want of a
	// wrapper.
	if hits := metricValue(t, b2.addr, "boundary_template_hits_total"); hits < 1 {
		t.Errorf("restarted node-b served %v template hits, want >= 1 (its wrapper store should warm it)", hits)
	}
	if misses := metricValue(t, b2.addr, "boundary_template_misses_total"); misses != 0 {
		t.Errorf("restarted node-b had %v template misses, want 0", misses)
	}

	for _, node := range fleet {
		node.stop(t)
	}
}
