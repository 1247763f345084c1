package runner

import (
	"fmt"
	"math"
	"testing"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/value"
)

// TestChunkPlacementMatchesTheExchange: a dictionary placed as value
// shredding builds it, chunk by chunk and concatenated partition by
// partition, is the dictionary placed whole, which is what an exchange on the
// label over its flat rows bound whole (FromRows) delivers — the same rows in
// the same order, with the same hashes — so a Γ+ reducing a placed dictionary
// in place adds its floats in the order the exchanged one did.
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
	// Every element mints one label, so a chunk numbering its labels from its
	// first element's position numbers them as the whole input does.
	chunks := []*Chunk{NewChunk(b[:20], bt, 0), NewChunk(b[20:21], bt, 20), NewChunk(b[21:], bt, 21)}
	pieced, err := NewInput("D", bt, chunks, nil).Components(true, p)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := NewInput("D", bt, []*Chunk{NewChunk(b, bt, 0)}, nil).Components(true, p)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := shred.ShredInput("D", b, bt)
	if err != nil {
		t.Fatal(err)
	}
	if _, kept := whole.Rows["D__xs"]; kept || len(whole.Placed) != 1 {
		t.Fatalf("components %v / placed %v: want the dictionary placed and not kept as rows", whole.Rows, whole.Placed)
	}
	w, pc := whole.Placed["D__xs"].Whole(), pieced.Placed["D__xs"].Whole()
	ex, err := dataflow.NewContext(p).FromRows(tuplesToRows(flat.Rows["D__xs"])).RepartitionBy("x", labelKey, false)
	if err != nil {
		t.Fatal(err)
	}
	ex.SamplePartitions(math.MaxInt, func(i int, got []dataflow.Row) {
		if fmt.Sprint(w.Parts[i]) != fmt.Sprint(got) || fmt.Sprint(pc.Parts[i]) != fmt.Sprint(got) {
			t.Errorf("partition %d: placed whole %v, by chunk %v, the exchange delivered %v", i, w.Parts[i], pc.Parts[i], got)
		}
		if fmt.Sprint(w.Hashes[i]) != fmt.Sprint(pc.Hashes[i]) {
			t.Errorf("partition %d: hashes placed whole %v, by chunk %v", i, w.Hashes[i], pc.Hashes[i])
		}
		for j, r := range w.Parts[i] {
			if h := value.HashCols(r, labelKey); w.Hashes[i][j] != h || h%p != uint64(i) {
				t.Errorf("partition %d row %d: hash %d, the label hashes to %d", i, j, w.Hashes[i][j], h)
			}
		}
	})
}
