package tagtree

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/faultinject"
)

// diffTrees returns a description of the first difference between two trees,
// or "" when they are structurally identical (shape, names, attributes,
// offsets, decoded text, event streams). It is the oracle both the arena
// unit tests and FuzzByteVsStringParse rely on.
func diffTrees(a, b *Tree) string {
	if len(a.Events) != len(b.Events) {
		return fmt.Sprintf("event count: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Kind != eb.Kind || ea.Pos != eb.Pos || ea.Text != eb.Text {
			return fmt.Sprintf("event %d: %+v vs %+v", i, ea, eb)
		}
		if (ea.Node == nil) != (eb.Node == nil) {
			return fmt.Sprintf("event %d: node presence differs", i)
		}
		if ea.Node != nil && ea.Node.Name != eb.Node.Name {
			return fmt.Sprintf("event %d: node %q vs %q", i, ea.Node.Name, eb.Node.Name)
		}
	}
	return diffNodes("#document", a.Root, b.Root)
}

func diffNodes(path string, a, b *Node) string {
	if a.Name != b.Name {
		return fmt.Sprintf("%s: name %q vs %q", path, a.Name, b.Name)
	}
	if a.StartPos != b.StartPos || a.EndPos != b.EndPos {
		return fmt.Sprintf("%s: span [%d,%d] vs [%d,%d]", path, a.StartPos, a.EndPos, b.StartPos, b.EndPos)
	}
	af, al := a.EventRange()
	bf, bl := b.EventRange()
	if af != bf || al != bl {
		return fmt.Sprintf("%s: event range [%d,%d) vs [%d,%d)", path, af, al, bf, bl)
	}
	if a.SubtreeTagCount() != b.SubtreeTagCount() {
		return fmt.Sprintf("%s: subtree tags %d vs %d", path, a.SubtreeTagCount(), b.SubtreeTagCount())
	}
	if len(a.Attrs) != len(b.Attrs) {
		return fmt.Sprintf("%s: attr count %d vs %d", path, len(a.Attrs), len(b.Attrs))
	}
	for i := range a.Attrs {
		if a.Attrs[i] != b.Attrs[i] {
			return fmt.Sprintf("%s: attr %d: %+v vs %+v", path, i, a.Attrs[i], b.Attrs[i])
		}
	}
	if len(a.Chunks) != len(b.Chunks) {
		return fmt.Sprintf("%s: chunk count %d vs %d", path, len(a.Chunks), len(b.Chunks))
	}
	for i := range a.Chunks {
		if a.Chunks[i] != b.Chunks[i] {
			return fmt.Sprintf("%s: chunk %d: %+v vs %+v", path, i, a.Chunks[i], b.Chunks[i])
		}
	}
	if len(a.Children) != len(b.Children) {
		return fmt.Sprintf("%s: child count %d vs %d", path, len(a.Children), len(b.Children))
	}
	for i := range a.Children {
		if d := diffNodes(fmt.Sprintf("%s/%s[%d]", path, a.Children[i].Name, i), a.Children[i], b.Children[i]); d != "" {
			return d
		}
	}
	return ""
}

const arenaTestDoc = `<!DOCTYPE html><HTML><Head><TITLE>A & B</title></head>
<body bgcolor="#ffffff"><!-- rail --><table Border=1>
<tr><td>Name<td>Alice &amp; co<tr><td>Obit<td>Bob — d. 1998
</table><ul><li>one<li>two &#38; three<li><script>if (a<b) { x() }</script>
</ul><p>end<hr></body></html>`

// parseArena is test shorthand for ParseArenaContext with a background
// context, no limits, and no faults.
func parseArena(doc string, a *Arena) *Tree {
	return mustParse(ParseArenaContext(context.Background(), doc, Limits{}, a, nil))
}

func TestParseArenaMatchesParse(t *testing.T) {
	a := AcquireArena()
	defer a.Release()
	for _, doc := range []string{arenaTestDoc, "", "plain text", "<a href='x&y'>t</a>"} {
		ref, err := refParseContext(context.Background(), doc, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		for _, arena := range []*Arena{a, nil} {
			got, err := ParseArenaContext(context.Background(), doc, Limits{}, arena, nil)
			if err != nil {
				t.Fatal(err)
			}
			if d := diffTrees(ref, got); d != "" {
				t.Fatalf("arena parse (pooled %v) differs for %q: %s", arena != nil, doc, d)
			}
		}
	}
}

func TestParseXMLArenaMatchesParseXML(t *testing.T) {
	a := AcquireArena()
	defer a.Release()
	doc := `<?xml version="1.0"?><Feed><Item id="1"><Name><![CDATA[x <&> y]]></Name></Item><Item/><other>text</Feed>`
	ref, err := refParseXMLContext(context.Background(), doc, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, arena := range []*Arena{a, nil} {
		got, err := ParseXMLArenaContext(context.Background(), doc, Limits{}, arena, nil)
		if err != nil {
			t.Fatal(err)
		}
		if d := diffTrees(ref, got); d != "" {
			t.Fatalf("arena XML parse (pooled %v) differs: %s", arena != nil, d)
		}
	}
}

// TestParseArenaLimitsMatch pins that the arena path trips the same limit
// errors as the reference path, in the same order.
func TestParseArenaLimitsMatch(t *testing.T) {
	doc := strings.Repeat("<div><span>x</span></div>", 200)
	deep := strings.Repeat("<div>", 100)
	for _, tc := range []struct {
		name string
		doc  string
		lim  Limits
	}{
		{"nodes", doc, Limits{MaxNodes: 10}},
		{"depth", deep, Limits{MaxDepth: 10}},
		{"bytes", doc, Limits{MaxBytes: 16}},
		{"ok", doc, Limits{MaxNodes: 10000, MaxDepth: 100}},
	} {
		a := AcquireArena()
		_, refErr := refParseContext(context.Background(), tc.doc, tc.lim)
		_, gotErr := ParseArenaContext(context.Background(), tc.doc, tc.lim, a, nil)
		if fmt.Sprint(refErr) != fmt.Sprint(gotErr) {
			t.Errorf("%s: reference err %v, arena err %v", tc.name, refErr, gotErr)
		}
		a.Release()
	}
}

// TestParseArenaWarmZeroAllocs is the core zero-alloc guarantee: once the
// arena is warm, parsing a document with no entity references allocates
// nothing at all.
func TestParseArenaWarmZeroAllocs(t *testing.T) {
	// Entity references force DecodeEntities onto its allocating slow path
	// (correctly so); strip them to measure the pure structural path.
	doc := strings.NewReplacer("&amp;", "and", "&#38;", "and", "A & B", "A B").Replace(arenaTestDoc)
	a := AcquireArena()
	defer a.Release()
	parseArena(doc, a) // warm the slabs
	allocs := testing.AllocsPerRun(50, func() {
		parseArena(doc, a)
	})
	if allocs != 0 {
		t.Errorf("warm arena parse: measured %v allocs/op, ceiling 0", allocs)
	}
}

// TestOneShotArenaSizedToDocument pins that a nil-arena parse allocates node
// storage for exactly the document's nodes rather than a pooled arena's
// whole 512-node block, which would cost a small document ~70 KB of zeroing
// per parse.
func TestOneShotArenaSizedToDocument(t *testing.T) {
	const doc = "<ul><li>a<li>b<li>c</ul>" // root + ul + 3 li
	a := newOneShotArena()
	if _, err := ParseArenaContext(context.Background(), doc, Limits{}, a, nil); err != nil {
		t.Fatal(err)
	}
	if len(a.blocks) != 1 || len(a.blocks[0]) != 5 {
		t.Fatalf("one-shot node blocks: %d blocks, first %d nodes; want 1 block of 5",
			len(a.blocks), len(a.blocks[0]))
	}
	pooled := AcquireArena()
	defer pooled.Release()
	parseArena(doc, pooled)
	if len(pooled.blocks[0]) != nodeBlockSize {
		t.Fatalf("pooled arena block holds %d nodes, want a full %d", len(pooled.blocks[0]), nodeBlockSize)
	}

	// The nil-arena entry point must take the sized path: all the memory
	// one parse allocates stays well below one full node block.
	var before, after runtime.MemStats
	const runs = 50
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Parse(doc)
	}
	runtime.ReadMemStats(&after)
	perParse := (after.TotalAlloc - before.TotalAlloc) / runs
	if block := uint64(nodeBlockSize * unsafe.Sizeof(Node{})); perParse >= block/4 {
		t.Errorf("nil-arena parse of %d bytes allocated %d B, want < %d (a quarter of one node block)",
			len(doc), perParse, block/4)
	}
}

// TestArenaReleaseIdempotent pins the panic-safety contract: Release from a
// defer may run after an explicit Release without double-pooling.
func TestArenaReleaseIdempotent(t *testing.T) {
	a := AcquireArena()
	parseArena("<b>x</b>", a)
	a.Release()
	a.Release() // no-op
	b := AcquireArena()
	defer b.Release()
	if tr := parseArena("<i>y</i>", b); tr.Root.Find("i") == nil {
		t.Fatal("arena unusable after double release")
	}
}

// TestArenaPanicMidParseReleases arms the htmlparse/arena hook with a panic
// and proves the deferred Release still repools the (dirty) entry, no
// goroutines leak, and the arena remains usable afterwards.
func TestArenaPanicMidParseReleases(t *testing.T) {
	before := runtime.NumGoroutine()
	set := faultinject.New()
	set.Inject("htmlparse/arena", faultinject.Fault{Panic: "mid-parse", Times: 1})
	a := AcquireArena()
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected injected panic")
			}
		}()
		defer a.Release()
		_, _ = ParseArenaContext(context.Background(), arenaTestDoc, Limits{}, a, set)
	}()
	if set.Fired("htmlparse/arena") != 1 {
		t.Fatalf("hook fired %d times, want 1", set.Fired("htmlparse/arena"))
	}
	// The released entry must be clean and reusable.
	b := AcquireArena()
	defer b.Release()
	ref := Parse(arenaTestDoc)
	got, err := ParseArenaContext(context.Background(), arenaTestDoc, Limits{}, b, set)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffTrees(ref, got); d != "" {
		t.Fatalf("arena dirty after panic release: %s", d)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutine leak: %d before, %d after", before, n)
	}
}

// TestParseArenaCanceled pins that cancellation surfaces identically on the
// arena path.
func TestParseArenaCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := AcquireArena()
	defer a.Release()
	if _, err := ParseArenaContext(ctx, arenaTestDoc, Limits{}, a, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestCollapsedLen(t *testing.T) {
	for _, s := range []string{
		"", " ", "  \t\n", "a", " a ", "a  b", "  a \t b\vc  ", "one two", "\fx\f",
	} {
		if got, want := CollapsedLen(s), len(CollapseSpace(s)); got != want {
			t.Errorf("CollapsedLen(%q) = %d, want %d", s, got, want)
		}
	}
}
