package runner

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/value"
)

// TestChunkPlacementMatchesTheExchange: a component placed as value
// shredding builds it, chunk by chunk and concatenated partition by
// partition, is the component placed whole, which is what an exchange on its
// key over its flat rows bound whole (FromRows) delivers — the same rows in
// the same order, with the same hashes — so a Γ+ reducing a placed dictionary
// in place adds its floats in the order the exchanged one did. That holds for
// the dictionary, on its label, and for the top rows, on their label column,
// in input order.
func TestChunkPlacementMatchesTheExchange(t *testing.T) {
	const p = 4
	bt := nrc.BagOf(nrc.Tup("k", nrc.IntT, "xs", nrc.BagOf(nrc.Tup("v", nrc.RealT))))
	var b value.Bag
	for i := range 53 {
		xs := value.Bag{}
		for j := range i % 5 {
			xs = append(xs, value.Tuple{float64(4*i+j) / 7})
		}
		b = append(b, value.Tuple{int64(i), xs})
	}
	// A chunk numbering its labels from where the chunk before it stopped
	// numbers them as the whole input does.
	var chunks []*Chunk
	base := int64(0)
	for _, r := range [][2]int{{0, 20}, {20, 21}, {21, 53}} {
		ch := NewChunk(b[r[0]:r[1]], bt, base)
		comp, err := ch.Components("D", true, p)
		if err != nil {
			t.Fatal(err)
		}
		chunks, base = append(chunks, ch), comp.Placed["D__xs"].Chunks[0].Last
	}
	pieced, err := NewInput("D", bt, chunks, nil).Components(true, p)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := NewInput("D", bt, []*Chunk{NewChunk(b, bt, 0)}, nil).Components(true, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, kept := whole.Rows["D__xs"]; kept || len(whole.Placed) != 2 || len(whole.Rows["D__F"]) != len(b) {
		t.Fatalf("components %v / placed %v: want the dictionary placed and not kept as rows, the top rows kept and placed", whole.Rows, whole.Placed)
	}
	// The dictionary's flat rows in minting order: its labels' sequence
	// numbers increase as value shredding mints them.
	var dict []dataflow.Row
	for _, part := range whole.Placed["D__xs"].Whole().Parts {
		dict = append(dict, part...)
	}
	seq := func(r dataflow.Row) int64 { s, _ := shred.LabelSeq(r[0]); return s }
	slices.SortStableFunc(dict, func(a, b dataflow.Row) int { return cmp.Compare(seq(a), seq(b)) })
	for name, flat := range map[string][]dataflow.Row{"D__xs": dict, "D__F": whole.Rows["D__F"]} {
		w, pc := whole.Placed[name].Whole(), pieced.Placed[name].Whole()
		ex, err := dataflow.NewContext(p).FromRows(flat).RepartitionBy("x", w.Cols, false)
		if err != nil {
			t.Fatal(err)
		}
		ex.SamplePartitions(math.MaxInt, func(i int, got []dataflow.Row) {
			if fmt.Sprint(w.Parts[i]) != fmt.Sprint(got) || fmt.Sprint(pc.Parts[i]) != fmt.Sprint(got) {
				t.Errorf("%s partition %d: placed whole %v, by chunk %v, the exchange delivered %v", name, i, w.Parts[i], pc.Parts[i], got)
			}
			if fmt.Sprint(w.Hashes[i]) != fmt.Sprint(pc.Hashes[i]) {
				t.Errorf("%s partition %d: hashes placed whole %v, by chunk %v", name, i, w.Hashes[i], pc.Hashes[i])
			}
			for j, r := range w.Parts[i] {
				if h := value.HashCols(r, w.Cols); w.Hashes[i][j] != h || h%p != uint64(i) {
					t.Errorf("%s partition %d row %d: hash %d, the key hashes to %d", name, i, j, w.Hashes[i][j], h)
				}
			}
		})
	}
}
