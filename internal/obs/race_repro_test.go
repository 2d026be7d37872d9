package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestExpoRace: a scrape that overlaps the creation of new label series
// lists every series created before the scrape began, and never reads the
// series map while a creation writes it — the race detector, or the
// runtime's concurrent map check, fails the run if it does.
func TestExpoRace(t *testing.T) {
	const writers, perWriter = 4, 5000
	r := NewRegistry()
	var made [writers]atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.Counter("x_total", "", "route", fmt.Sprintf("%d-%d", w, i)).Inc()
				made[w].Store(int64(i + 1))
			}
		}(w)
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()

	for churning, scrapes := true, 0; churning || scrapes < 10; scrapes++ {
		select {
		case <-finished:
			churning = false
		default:
		}
		var before [writers]int64
		for w := range before {
			before[w] = made[w].Load()
		}
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		listed := map[string]bool{}
		for _, line := range strings.Split(b.String(), "\n") {
			if series, _, ok := strings.Cut(line, " "); ok {
				listed[series] = true
			}
		}
		for w, n := range before {
			for i := int64(0); i < n; i++ {
				if s := fmt.Sprintf(`x_total{route="%d-%d"}`, w, i); !listed[s] {
					t.Fatalf("scrape %d omits %s, created before the scrape began", scrapes, s)
				}
			}
		}
	}
}
