package plan

import (
	"strings"
	"testing"
	"time"

	"github.com/trance-go/trance/internal/nrc"
)

func TestAnalysisNilSafety(t *testing.T) {
	var a *Analysis
	op := scanR()
	if a.Node(op) != nil || a.Lookup(op) != nil {
		t.Fatal("nil analysis must hand out nil stats")
	}
	a.Alias(op, op)
	if got := QErrors(op, a); len(got) != 0 {
		t.Fatalf("nil analysis q-errors: %v", got)
	}
	// Rendering against a nil analysis is just Explain without annotations.
	if text := ExplainAnalyzed(op, a, nil, nil); !strings.Contains(text, "Scan R") || strings.Contains(text, "actual_rows") {
		t.Fatalf("nil-analysis render: %q", text)
	}
}

func TestAnalysisNodeAndAlias(t *testing.T) {
	a := NewAnalysis()
	op := scanR()
	ns := a.Node(op)
	if ns == nil || a.Node(op) != ns || a.Lookup(op) != ns {
		t.Fatal("Node must create once and Lookup must find it")
	}
	synthetic := &Select{In: op, Pred: &ConstE{Val: true, Typ: nrc.BoolT}}
	a.Alias(synthetic, op)
	if a.Lookup(synthetic) != ns {
		t.Fatal("aliased node must share the canonical stats slot")
	}
	if a.Lookup(&Scan{Input: "other"}) != nil {
		t.Fatal("Lookup must not create slots")
	}
}

func TestQErr(t *testing.T) {
	cases := []struct {
		est, actual int64
		want        float64
	}{
		{100, 100, 1},
		{200, 100, 2},
		{100, 200, 2},
		{0, 0, 1},   // both clamped to 1
		{0, 10, 10}, // empty estimate vs real rows
	}
	for _, c := range cases {
		if got := qerr(c.est, c.actual); got != c.want {
			t.Errorf("qerr(%d, %d) = %g, want %g", c.est, c.actual, got, c.want)
		}
	}
}

// analyzedTree builds Select(σ) over Join(cost-annotated) over {Scan,
// IndexScan} with measured stats on every node.
func analyzedTree() (Op, *Analysis) {
	scan := scanR()
	idx := &IndexScan{
		Input: "S", Col: "k",
		Cols:    []Column{{Name: "k", Type: nrc.IntT}},
		EstRows: 4,
	}
	join := &Join{L: scan, R: idx, LCols: []int{0}, RCols: []int{0}, Cost: &Costs{EstRows: 600}}
	sel := &Select{In: join, Pred: &CmpE{Op: nrc.Gt, L: &Col{Idx: 0, Typ: nrc.IntT}, R: &ConstE{Val: int64(3), Typ: nrc.IntT}}}

	a := NewAnalysis()
	a.Node(scan).RowsOut.Store(100)
	ins := a.Node(idx)
	ins.RowsOut.Store(50)
	ins.IndexMatched.Store(50)
	jns := a.Node(join)
	jns.RowsOut.Store(580)
	jns.Stage = "join#1"
	sns := a.Node(sel)
	sns.RowsIn.Store(580)
	sns.RowsOut.Store(97)
	sns.WallNS.Store(int64(180 * time.Microsecond))
	return sel, a
}

func TestQErrorsCollection(t *testing.T) {
	root, a := analyzedTree()
	qs := QErrors(root, a)
	if len(qs) != 2 {
		t.Fatalf("want q-errors for the join and the index scan, got %v", qs)
	}
	join, idx := qs[0], qs[1]
	if join.Est != 600 || join.Actual != 580 || join.Q < 1.03 || join.Q > 1.04 {
		t.Fatalf("join q-error: %+v", join)
	}
	if idx.Est != 4 || idx.Actual != 50 || idx.Q != 12.5 {
		t.Fatalf("index q-error: %+v", idx)
	}
}

func TestExplainAnalyzedRendering(t *testing.T) {
	root, a := analyzedTree()
	text := ExplainAnalyzed(root, a, map[string]time.Duration{"join#1": 2 * time.Millisecond}, map[string]int64{"join#1": 1234})
	for _, want := range []string{
		"[actual_rows=97 rows_in=580 wall=180µs]",
		"wall=2ms",       // the join resolves its stage wall from the map
		"shuffled=1234B", // and its exchanges' bytes
		"q_err=1.03",     // join: 600 est vs 580 actual
		"q_err=12.50",    // index scan: 4 est vs 50 actual
		"index_matched=50",
		"[actual_rows=100]", // plain scan: no wall
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("analyzed explain missing %q:\n%s", want, text)
		}
	}

	// Without the stage-wall map the wide operator renders without a wall.
	noWall := ExplainAnalyzed(root, a, nil, nil)
	if strings.Contains(noWall, "wall=2ms") || strings.Contains(noWall, "shuffled=") {
		t.Fatalf("stage wall or shuffled bytes rendered without a map:\n%s", noWall)
	}

	// An index scan that fell back reports the fallback, not matches.
	ins := a.Lookup(root.(*Select).In.(*Join).R)
	ins.IndexFallbacks.Store(1)
	fb := ExplainAnalyzed(root, a, nil, nil)
	if !strings.Contains(fb, "index_fallbacks=1") || strings.Contains(fb, "index_matched") {
		t.Fatalf("fallback annotation wrong:\n%s", fb)
	}

	// Nodes without measured stats render with no runtime annotation.
	fresh := ExplainAnalyzed(scanR(), NewAnalysis(), nil, nil)
	if strings.Contains(fresh, "actual_rows") {
		t.Fatalf("untouched node gained an annotation:\n%s", fresh)
	}
}

func TestNodeStatsWall(t *testing.T) {
	ns := &NodeStats{}
	ns.WallNS.Store(int64(3 * time.Millisecond))
	if ns.Wall() != 3*time.Millisecond {
		t.Fatalf("Wall() = %v", ns.Wall())
	}
}
