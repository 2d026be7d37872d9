package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"repro/internal/corpus"
)

// Input sizes. A bulk pass holds pagesPerSite pages and one long listing
// of every site; a serve period sends every re-crawl variant once, fresh,
// and re-crawls as many recently served ones.
const (
	pagesPerSite = 10
	// longScale multiplies the most records a site's page carries to give
	// a long listing's record count. At five, the record subtree of every
	// site's long listing holds more than the recognizer's 16 KiB
	// threshold of text for fanning chunks across its worker pool.
	longScale = 5
	// basePerSite pages of every site are learned during serve set-up.
	basePerSite = 4
	// variants is the size of the serve workload's ring of changed pages.
	// It exceeds the 1024-entry result cache, so by the time a variant is
	// sent again every other variant has been inserted since and it has
	// been evicted: each fresh request is a cache miss. It is no multiple
	// of the template store's 64-hit spot-check cadence, so successive
	// periods spot-check different variants.
	variants = 1500
	// recrawlWindow bounds how far back a re-crawl reaches among the
	// variants served last. It skips the newest two, which the other
	// client may still have in flight.
	recrawlWindow = 16
	recrawlSkip   = 2
)

// allSites returns the 60 sites the corpus defines: the ten training sites
// and the five test sites of each of the four domains, in a fixed order.
func allSites() []*corpus.Site {
	var out []*corpus.Site
	for _, d := range corpus.AllDomains {
		out = append(out, corpus.TrainingSites(d)...)
		out = append(out, corpus.TestSites(d)...)
	}
	return out
}

// siteKey names a site within its domain: some site names recur across
// domains with different page styles.
type siteKey struct {
	domain corpus.Domain
	name   string
}

// missed lists the sites the corpus builds for discovery to miss.
// Without an ontology every page of GoCincinnati.com and KSU is answered
// <a>: IT and HT rank the per-record link above the separator, the case
// OM exists for; with one, about one page in a thousand still is. On
// about one UT - Austin page in 25, with or without an ontology, SD and
// HT outvote RP for <br>, which breaks every second sentence, over <hr>.
var missed = map[siteKey]bool{
	{corpus.Obituaries, "GoCincinnati.com"}: true,
	{corpus.JobAds, "GoCincinnati.com"}:     true,
	{corpus.Courses, "GoCincinnati.com"}:    true,
	{corpus.Courses, "KSU"}:                 true,
	{corpus.Courses, "UT - Austin"}:         true,
}

// benchSites returns the sites the workloads draw their pages from: every
// site but the missed ones. The benchmark measures the program on answers
// it gets right, so a run in which any answer is wrong has found a change
// in behaviour; the misses themselves are the quality harness's business
// (cmd/evalrun), not the benchmark's.
func benchSites() []*corpus.Site {
	var out []*corpus.Site
	for _, s := range allSites() {
		if !missed[siteKey{s.Domain, s.Name}] {
			out = append(out, s)
		}
	}
	return out
}

// page is one generated document with its ground truth.
type page struct {
	doc  *corpus.Document
	html string
	long bool
}

func (p *page) domain() corpus.Domain { return p.doc.Site.Domain }

// mix derives an independent stream seed from the workload seed and a tag.
func mix(seed int64, tag string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, tag)
	return int64(h.Sum64())
}

// pageIndices draws n distinct document indices for one site.
func pageIndices(r *rand.Rand, n int) []int {
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		i := r.Intn(1 << 20)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// longSite returns a copy of s whose pages carry longScale times its
// pages' most records.
func longSite(s *corpus.Site) *corpus.Site {
	c := *s
	n := s.Profile.Records[1] * longScale
	c.Profile.Records = [2]int{n, n}
	return &c
}

// bulkPass generates one pass of the bulk workloads: pagesPerSite pages
// and one long listing of every site of benchSites, at seeded page
// indices and in a seeded order.
func bulkPass(seed int64) []*page {
	r := rand.New(rand.NewSource(mix(seed, "bulk")))
	var pages []*page
	for _, s := range benchSites() {
		idx := pageIndices(r, pagesPerSite+1)
		for _, i := range idx[:pagesPerSite] {
			pages = append(pages, &page{doc: s.Generate(i)})
		}
		pages = append(pages, &page{doc: longSite(s).Generate(idx[pagesPerSite]), long: true})
	}
	r.Shuffle(len(pages), func(i, j int) { pages[i], pages[j] = pages[j], pages[i] })
	for _, p := range pages {
		p.html = p.doc.HTML
	}
	return pages
}

// warmPages returns the bulk workloads' warm-up pass: the first page and
// the long listing of every site.
func warmPages(pass []*page) []*page {
	type key struct {
		domain corpus.Domain
		site   string
		long   bool
	}
	seen := make(map[key]bool)
	var out []*page
	for _, p := range pass {
		k := key{p.domain(), p.doc.Site.Name, p.long}
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}

// taskLine is one NDJSON input line of the bulk engine.
type taskLine struct {
	ID       string `json:"id"`
	HTML     string `json:"html"`
	Ontology string `json:"ontology,omitempty"`
	Shard    string `json:"shard"`
}

// ndjson encodes pages as bulk input lines; armed lines name their
// domain's built-in ontology.
func ndjson(pages []*page, armed bool) ([]byte, error) {
	var out []byte
	for i, p := range pages {
		tl := taskLine{ID: fmt.Sprintf("p%d", i), HTML: p.html, Shard: string(p.domain())}
		if armed {
			tl.Ontology = string(p.domain())
		}
		b, err := json.Marshal(tl)
		if err != nil {
			return nil, err
		}
		out = append(append(out, b...), '\n')
	}
	return out, nil
}

// servePlan is the serve workload's input: base pages learned in set-up, a
// ring of changed re-crawls of them, and one period of the request order.
type servePlan struct {
	base     []*page
	variants []*page
	// order holds one period of requests as indices into variants.
	order []int
}

// request bodies for /v1/discover.
type discoverBody struct {
	HTML     string `json:"html"`
	Ontology string `json:"ontology"`
}

func body(p *page) ([]byte, error) {
	return json.Marshal(discoverBody{HTML: p.html, Ontology: string(p.domain())})
}

// newServePlan generates the serve workload. A variant is a base page
// re-rendered with corpus.Mangle: different bytes, so the result cache
// misses, but the same structure, so the template store hits. The request
// order alternates, in seeded positions, between the next variant of the
// ring (a fresh request) and a variant served a few fresh requests ago (a
// re-crawl, which the result cache answers).
func newServePlan(seed int64) *servePlan {
	r := rand.New(rand.NewSource(mix(seed, "serve")))
	sp := &servePlan{}
	for _, s := range benchSites() {
		for _, i := range pageIndices(r, basePerSite) {
			d := s.Generate(i)
			sp.base = append(sp.base, &page{doc: d, html: d.HTML})
		}
	}
	perm := r.Perm(len(sp.base))
	for k := 0; k < variants; k++ {
		b := sp.base[perm[k%len(perm)]]
		html := corpus.Mangle(b.html, mix(seed, fmt.Sprintf("variant/%d", k)))
		sp.variants = append(sp.variants, &page{doc: b.doc, html: html})
	}
	// Exactly one re-crawl per fresh request, in seeded order.
	kinds := make([]bool, 2*variants) // true: fresh
	for i := 0; i < variants; i++ {
		kinds[i] = true
	}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	fresh := 0
	for _, isFresh := range kinds {
		if isFresh {
			sp.order = append(sp.order, fresh)
			fresh++
			continue
		}
		back := recrawlSkip + r.Intn(recrawlWindow)
		sp.order = append(sp.order, ((fresh-back)%variants+variants)%variants)
	}
	return sp
}

// recent returns the variants the start of a period re-crawls before the
// ring has produced them: the tail of the ring, which the set-up serves so
// that every period, the first included, meets the same cache state.
func (sp *servePlan) recent() []*page {
	return sp.variants[len(sp.variants)-recrawlSkip-recrawlWindow:]
}
