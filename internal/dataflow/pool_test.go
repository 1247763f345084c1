package dataflow

import (
	"strings"
	"sync"
	"testing"
)

// A panic inside a partition task must surface as a job error, not crash the
// process: partition tasks run on pool goroutines where no caller-side
// recover could catch them.
func TestPartitionPanicBecomesError(t *testing.T) {
	ctx := NewContext(4)
	rows := make([]Row, 16)
	for i := range rows {
		rows[i] = Row{int64(i)}
	}
	d := ctx.FromRows(rows).Map(func(_ *Arena, r Row) Row {
		if r[0].(int64) == 7 {
			panic("poisoned row")
		}
		return r
	})
	_, err := d.Distinct("boom", false)
	if err == nil {
		t.Fatal("want an error from the poisoned partition")
	}
	if !strings.Contains(err.Error(), "poisoned row") || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("error does not describe the panic: %v", err)
	}
}

// Contexts sharing a Pool still compute correct results concurrently, and a
// Workers=1 pool keeps every helper off — each job runs sequentially on its
// caller.
func TestSharedPoolConcurrentJobs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		pool := NewPool(workers)
		const jobs = 8
		var wg sync.WaitGroup
		errs := make([]error, jobs)
		sums := make([]int64, jobs)
		for j := 0; j < jobs; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				ctx := NewContext(8)
				ctx.Pool = pool
				rows := make([]Row, 100)
				for i := range rows {
					rows[i] = Row{int64(i + j)}
				}
				d := ctx.FromRows(rows).Map(func(_ *Arena, r Row) Row {
					return Row{r[0].(int64) * 2}
				})
				out, err := d.Distinct("dedup", false)
				if err != nil {
					errs[j] = err
					return
				}
				for _, r := range out.Collect() {
					sums[j] += r[0].(int64)
				}
			}(j)
		}
		wg.Wait()
		for j := 0; j < jobs; j++ {
			if errs[j] != nil {
				t.Fatalf("workers=%d job %d: %v", workers, j, errs[j])
			}
			want := int64(0)
			for i := 0; i < 100; i++ {
				want += int64(i+j) * 2
			}
			if sums[j] != want {
				t.Fatalf("workers=%d job %d: sum %d want %d", workers, j, sums[j], want)
			}
		}
	}
}

// The pool semaphore bounds helper goroutines across jobs that share it.
func TestPoolWorkersDefaulting(t *testing.T) {
	if NewPool(3).Workers() != 3 {
		t.Fatal("explicit size")
	}
	if NewPool(0).Workers() < 1 {
		t.Fatal("default size must be at least 1")
	}
	if cap(NewPool(1).semaphore()) != 0 {
		t.Fatal("Workers=1 pool must have no helper slots")
	}
}
