package dataflow

import (
	"math/rand"
)

// SamplePartitions draws a deterministic pseudo-random sample of up to n rows
// from every partition and hands each sample, with its partition index, to
// visit. Sampling runs in parallel on the worker pool; visit is called
// sequentially on the caller's goroutine, in partition order, so callers need
// no synchronization. The skew detector of Section 5 uses it to estimate
// per-partition key frequencies without a full pass being charged as a
// shuffle.
func (d *Dataset) SamplePartitions(n int, visit func(part int, sample []Row)) {
	d.force()
	samples := make([][]Row, len(d.parts))
	_ = d.ctx.runParts(len(d.parts), func(i int) error {
		rows := d.parts[i]
		if len(rows) <= n {
			samples[i] = rows
			return nil
		}
		rng := rand.New(rand.NewSource(sampleSeed + int64(i)))
		sample := make([]Row, n)
		// Reservoir sampling keeps the draw uniform and single-pass.
		copy(sample, rows[:n])
		for j := n; j < len(rows); j++ {
			if k := rng.Intn(j + 1); k < n {
				sample[k] = rows[j]
			}
		}
		samples[i] = sample
		return nil
	})
	for i, s := range samples {
		visit(i, s)
	}
}
