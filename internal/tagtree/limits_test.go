package tagtree

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/htmlparse"
)

func TestParseContextNoLimitsMatchesParse(t *testing.T) {
	doc := "<div><hr><b>A</b> x<hr><b>B</b> y<hr></div>"
	got, err := ParseContext(context.Background(), doc, Limits{})
	if err != nil {
		t.Fatalf("ParseContext: %v", err)
	}
	want := Parse(doc)
	if got.Root.Text() != want.Root.Text() || countNodes(got) != countNodes(want) {
		t.Errorf("trees differ: text %q vs %q, nodes %d vs %d",
			got.Root.Text(), want.Root.Text(), countNodes(got), countNodes(want))
	}
}

func countNodes(t *Tree) int {
	n := 0
	t.Root.Walk(func(*Node) bool { n++; return true })
	return n
}

func TestParseContextMaxBytes(t *testing.T) {
	doc := "<div>" + strings.Repeat("x", 100) + "</div>"
	if _, err := ParseContext(context.Background(), doc, Limits{MaxBytes: 50}); !errors.Is(err, htmlparse.ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
	if _, err := ParseContext(context.Background(), doc, Limits{MaxBytes: len(doc)}); err != nil {
		t.Errorf("at-limit document rejected: %v", err)
	}
}

func TestParseContextMaxDepth(t *testing.T) {
	doc := strings.Repeat("<div>", 10) + "x" + strings.Repeat("</div>", 10)
	if _, err := ParseContext(context.Background(), doc, Limits{MaxDepth: 5}); !errors.Is(err, ErrTooDeep) {
		t.Errorf("err = %v, want ErrTooDeep", err)
	}
	if _, err := ParseContext(context.Background(), doc, Limits{MaxDepth: 10}); err != nil {
		t.Errorf("at-limit nesting rejected: %v", err)
	}
}

func TestParseContextMaxNodes(t *testing.T) {
	doc := "<div>" + strings.Repeat("<b>x</b>", 20) + "</div>"
	if _, err := ParseContext(context.Background(), doc, Limits{MaxNodes: 10}); !errors.Is(err, ErrTooManyNodes) {
		t.Errorf("err = %v, want ErrTooManyNodes", err)
	}
	// 20 <b> + 1 <div> = 21 element nodes.
	if _, err := ParseContext(context.Background(), doc, Limits{MaxNodes: 21}); err != nil {
		t.Errorf("at-limit node count rejected: %v", err)
	}
}

func TestParseContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var sb strings.Builder
	sb.WriteString("<div>")
	// Enough tokens to guarantee the build loop crosses a checkpoint.
	for i := 0; i < 2*buildCheckEvery; i++ {
		sb.WriteString("<b>x</b>")
	}
	sb.WriteString("</div>")
	if _, err := ParseContext(ctx, sb.String(), Limits{}); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestParseXMLContextLimits(t *testing.T) {
	doc := "<root>" + strings.Repeat("<item>x</item>", 20) + "</root>"
	if _, err := ParseXMLContext(context.Background(), doc, Limits{MaxNodes: 5}); !errors.Is(err, ErrTooManyNodes) {
		t.Errorf("err = %v, want ErrTooManyNodes", err)
	}
	got, err := ParseXMLContext(context.Background(), doc, Limits{})
	if err != nil {
		t.Fatalf("ParseXMLContext: %v", err)
	}
	want := ParseXML(doc)
	if got.Root.Text() != want.Root.Text() || countNodes(got) != countNodes(want) {
		t.Errorf("trees differ: text %q vs %q, nodes %d vs %d",
			got.Root.Text(), want.Root.Text(), countNodes(got), countNodes(want))
	}
}

// TestArenaReleaseAfterLimitAtBlockEdge pins that a parse failing its node
// limit exactly where a new node block would begin leaves an arena that
// releases and parses cleanly: the failed node is never counted as written.
func TestArenaReleaseAfterLimitAtBlockEdge(t *testing.T) {
	doc := strings.Repeat("<b>x</b>", 2*nodeBlockSize)
	for _, limit := range []int{nodeBlockSize - 1, nodeBlockSize, nodeBlockSize + 1} {
		a := AcquireArena()
		if _, err := ParseArenaContext(context.Background(), doc, Limits{MaxNodes: limit}, a, nil); !errors.Is(err, ErrTooManyNodes) {
			t.Fatalf("limit %d: err = %v, want ErrTooManyNodes", limit, err)
		}
		a.Release()
		b := AcquireArena()
		if tr := parseArena("<i>y</i>", b); tr.Root.Find("i") == nil {
			t.Fatalf("limit %d: arena unusable after a failed parse", limit)
		}
		b.Release()
	}
}
