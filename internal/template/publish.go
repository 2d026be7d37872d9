package template

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// PublisherConfig configures cluster warming. The targets are not part of
// it: they follow membership through Publisher.SetTargets.
type PublisherConfig struct {
	// Client is the HTTP client; nil means a 5-second-timeout default.
	Client *http.Client
	// QueueSize bounds the publish backlog; 0 means 256. When the queue
	// is full new entries are dropped (outcome "dropped") — warming is
	// best-effort, never backpressure on the serving path.
	QueueSize int
	// Metrics receives boundary_template_publishes_total; nil disables.
	Metrics *obs.Registry
	// Faults is the chaos hook set (FaultPublish); nil disables.
	Faults *faultinject.Set
}

// Publisher pushes locally-learned wrapper entries to ring neighbors so one
// discovery warms the whole cluster. Wire it to a store with
// store.OnStore = publisher.Publish. Publishing is asynchronous and
// best-effort: a slow or dead peer never slows the request that learned the
// entry, and failures only show up in metrics.
type Publisher struct {
	cfg PublisherConfig
	ch  chan *Entry
	wg  sync.WaitGroup

	mu      sync.Mutex
	closed  bool
	targets []string // peer base URLs, e.g. "http://10.0.0.2:8080"
}

// NewPublisher starts a publisher's delivery worker. Close it to drain.
func NewPublisher(cfg PublisherConfig) *Publisher {
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 256
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 5 * time.Second}
	}
	p := &Publisher{cfg: cfg, ch: make(chan *Entry, cfg.QueueSize)}
	p.wg.Add(1)
	go p.run()
	return p
}

// SetTargets replaces the publish target set: peer base URLs whose
// /v1/template/publish endpoint receives each locally-learned entry. The
// membership layer calls it on every serving-set change, so warming follows
// the live cluster: joiners start receiving publishes, leavers stop costing
// delivery attempts. A new publisher has no targets.
func (p *Publisher) SetTargets(targets []string) {
	p.mu.Lock()
	p.targets = append([]string(nil), targets...)
	p.mu.Unlock()
}

// currentTargets snapshots the target set for one delivery round.
func (p *Publisher) currentTargets() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.targets
}

// Publish enqueues an entry for delivery to every target, dropping it (with
// an outcome metric) when the backlog is full or the publisher is closed.
// Its signature matches Store.OnStore.
func (p *Publisher) Publish(e *Entry) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.outcome("dropped").Inc()
		return
	}
	select {
	case p.ch <- e:
		p.mu.Unlock()
	default:
		p.mu.Unlock()
		p.outcome("dropped").Inc()
	}
}

// Close drains the queue, delivers what it can, and stops the worker.
func (p *Publisher) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.ch)
	p.mu.Unlock()
	p.wg.Wait()
}

func (p *Publisher) run() {
	defer p.wg.Done()
	for e := range p.ch {
		body, err := json.Marshal(e)
		if err != nil {
			p.outcome("error").Inc()
			continue
		}
		for _, target := range p.currentTargets() {
			p.deliver(target, body)
		}
	}
}

func (p *Publisher) deliver(target string, body []byte) {
	if err := p.cfg.Faults.Fire(FaultPublish); err != nil {
		p.outcome("error").Inc()
		return
	}
	resp, err := p.cfg.Client.Post(target+"/v1/template/publish",
		"application/json", bytes.NewReader(body))
	if err != nil {
		p.outcome("error").Inc()
		return
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		p.outcome("error").Inc()
		return
	}
	p.outcome("ok").Inc()
}

func (p *Publisher) outcome(o string) *obs.Counter {
	return p.cfg.Metrics.Counter("boundary_template_publishes_total",
		"Wrapper entries published to cluster peers, by outcome.",
		"outcome", o)
}
