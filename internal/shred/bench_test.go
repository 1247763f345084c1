package shred_test

import (
	"math/rand"
	"testing"

	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/testdata"
)

// BenchmarkValueShred measures converting nested values to the shredded
// representation (input preparation of the shredded route).
func BenchmarkValueShred(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	cop := testdata.RandomCOP(r, 500, 6, 6, 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := shred.ShredInput("COP", cop, testdata.COPType); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShredQuery measures the compile-time cost of symbolic shredding
// plus materialization of the running example.
func BenchmarkShredQuery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := shred.ShredQuery(testdata.RunningExample(), testdata.Env(), "Q", shred.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
