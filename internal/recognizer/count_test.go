package recognizer

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ontology"
	"repro/internal/paperdoc"
	"repro/internal/tagtree"
)

// tableCounts is FieldCount over the full Data-Record Table
// RecognizeContext builds, per record-identifying field: what CountFields
// must return.
func tableCounts(t *testing.T, ont *ontology.Ontology, tree *tagtree.Tree, n *tagtree.Node) []int {
	t.Helper()
	fields, ok := ont.RecordIdentifyingFields()
	if !ok {
		return nil
	}
	table, err := RecognizeContext(context.Background(), ont, tree, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, len(fields))
	for i, f := range fields {
		counts[i] = FieldCount(table, f)
	}
	return counts
}

// TestCountFieldsMatchesTable: for every builtin ontology, over the
// 220-document corpus plus one long listing per site, the count-only scan
// gives the full table's FieldCount for every record-identifying field,
// over the highest-fan-out subtree and over the whole document.
func TestCountFieldsMatchesTable(t *testing.T) {
	for _, doc := range corpusWithLongListings() {
		tree := tagtree.Parse(doc.HTML)
		for _, name := range ontology.BuiltinNames() {
			ont := ontology.Builtin(name)
			for _, n := range []*tagtree.Node{tree.HighestFanOut(), tree.Root} {
				got, err := CountFields(context.Background(), ont, tree, n, nil)
				if err != nil {
					t.Fatal(err)
				}
				if want := tableCounts(t, ont, tree, n); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Errorf("%s (%d records), %s ontology, subtree %s: counts %v, table %v",
						doc.Site.Name, doc.Records, name, n.Name, got, want)
				}
			}
		}
	}
}

// TestCountFieldsDeclinesWithoutThreeFields: an ontology with fewer than
// three record-identifying fields yields no counts and scans nothing.
func TestCountFieldsDeclinesWithoutThreeFields(t *testing.T) {
	ont := ontology.MustParse("ontology X\nentity X\nobject A : one-to-one {\nkeyword `died`\n}")
	faults := faultinject.New()
	tree := tagtree.Parse(paperdoc.Figure2)
	counts, err := CountFields(context.Background(), ont, tree, tree.Root, faults)
	if counts != nil || err != nil {
		t.Errorf("counts = %v, err = %v, want nil, nil", counts, err)
	}
	if n := faults.Fired("recognizer/chunk"); n != 0 {
		t.Errorf("scanned %d chunks, want none", n)
	}
}

// FuzzFieldCounts: for any small DSL ontology and any document, the
// count-only scan gives the full Data-Record Table's FieldCount for every
// record-identifying field.
func FuzzFieldCounts(f *testing.F) {
	srcs := []string{
		ontology.ObituarySrc,
		ontology.CarAdSrc,
		ontology.JobAdSrc,
		ontology.CourseSrc,
		"ontology X\nentity X\nobject A : one-to-one {\nkeyword `k`\n}",
		"ontology X\nentity X\nlexicon M { a b c }\nobject A : one-to-one {\nvalue `{M} [0-9]+`\n}",
		"ontology X\r\nentity X\r\nobject A : one-to-one {\r\nkeyword `k`\r\n}",
		"ontology X\nentity X\nobject A : one-to-one {\nkeyword `ab|b`\nvalue `a+`\n}\n" +
			"object B : one-to-one {\ntype t\nvalue `b+`\n}\nobject C : functional {\nkeyword `(?i)c`\n}\n" +
			"object D : one-to-one {\ntype t\nvalue `[a-c]+`\n}",
		"ontology X\nentity X\nobject A : one-to-one {\nvalue `x$|y`\n}\n" +
			"object B : one-to-one {\nkeyword `\\bz\\b`\n}\nobject C : one-to-one {\nkeyword `q.{0,3}r`\n}",
	}
	docs := []string{
		paperdoc.Figure2,
		"<div>kw val val w</div>",
		"<p>ab b aab <b>bb</b> c C abc</p><p>x y z zz q12r</p>",
		"café naïve \xff\xfe invalid \xe2\x82 cut",
		"",
	}
	for i, src := range srcs {
		for j, doc := range docs {
			if (i+j)%2 == 0 || i >= len(srcs)-2 {
				f.Add(src, doc)
			}
		}
	}
	f.Fuzz(func(t *testing.T, src, doc string) {
		ont, err := ontology.Parse(src)
		if err != nil {
			return
		}
		tree := tagtree.Parse(doc)
		got, err := CountFields(context.Background(), ont, tree, tree.Root, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := tableCounts(t, ont, tree, tree.Root); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("counts %v, table %v", got, want)
		}
	})
}

// longListing is an obituary listing of n records, one text chunk per
// record and separator.
func longListing(n int) string {
	var sb strings.Builder
	sb.WriteString("<div>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "<b>Brian Fielding Frost %d</b> passed away on March %d, 1998. "+
			"Funeral services at the chapel. Interment at City Cemetery.<hr>", i, i%28+1)
	}
	sb.WriteString("</div>")
	return sb.String()
}

// scanPath is one way into the chunk scan: the count-only scan discovery
// uses, or the Data-Record Table scan extraction uses. Each path scans a
// listing of scanRecords records, which holds over scanCheckEvery text
// chunks.
type scanPath struct {
	name string
	scan func(context.Context, *ontology.Ontology, *tagtree.Tree, *faultinject.Set) error
}

const scanRecords = 400

var scanPaths = []scanPath{
	{"count", func(ctx context.Context, ont *ontology.Ontology, tree *tagtree.Tree, faults *faultinject.Set) error {
		_, err := CountFields(ctx, ont, tree, tree.Root, faults)
		return err
	}},
	{"table", func(ctx context.Context, ont *ontology.Ontology, tree *tagtree.Tree, faults *faultinject.Set) error {
		_, err := RecognizeContext(ctx, ont, tree, tree.Root, faults)
		return err
	}},
}

// TestFaultChunkHookFailsScan: an error or panic armed on the
// "recognizer/chunk" hook fails the scan with an error, on the count-only
// path and on the table path.
func TestFaultChunkHookFailsScan(t *testing.T) {
	ont := ontology.Builtin("obituary")
	boom := errors.New("injected chunk failure")
	tree := tagtree.Parse(longListing(scanRecords))
	for _, p := range scanPaths {
		for _, fault := range []faultinject.Fault{{Err: boom}, {Panic: "chunk down"}, {Err: boom, Times: 1}} {
			faults := faultinject.New()
			faults.Inject("recognizer/chunk", fault)
			err := p.scan(context.Background(), ont, tree, faults)
			switch {
			case fault.Panic != "":
				if err == nil || !strings.Contains(err.Error(), "chunk scan panicked") {
					t.Errorf("%s, panic: err = %v, want a contained panic", p.name, err)
				}
			case !errors.Is(err, boom):
				t.Errorf("%s, %+v: err = %v, want the injected error", p.name, fault, err)
			}
			if faults.Fired("recognizer/chunk") == 0 {
				t.Errorf("%s: hook never fired", p.name)
			}
		}
	}
}

// TestCanceledMidScan: a context canceled while a chunk scan is under way
// stops it with ctx.Err(), whether the cancel lands in an armed hook's
// delay or between chunks, where the scan checks every scanCheckEvery
// chunks.
func TestCanceledMidScan(t *testing.T) {
	ont := ontology.Builtin("obituary")
	tree := tagtree.Parse(longListing(scanRecords))
	for _, p := range scanPaths {
		ctx, cancel := context.WithCancel(context.Background())
		faults := faultinject.New()
		faults.Inject("recognizer/chunk", faultinject.Fault{Delay: time.Minute, Times: 1})
		go func() {
			for faults.Fired("recognizer/chunk") == 0 {
				time.Sleep(time.Millisecond)
			}
			cancel()
		}()
		if err := p.scan(ctx, ont, tree, faults); !errors.Is(err, context.Canceled) {
			t.Errorf("%s, cancel in the hook: err = %v, want context.Canceled", p.name, err)
		}

		canceled, cancel2 := context.WithCancel(context.Background())
		cancel2()
		if err := p.scan(canceled, ont, tree, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("%s, canceled between chunks: err = %v, want context.Canceled", p.name, err)
		}
	}
}
