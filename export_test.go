package trance

import (
	"maps"

	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/runner"
)

// SetMaxPlanCacheEntriesForTest shrinks the compilation-cache bound and
// returns a restore func, so tests can exercise eviction without hundreds
// of queries.
func SetMaxPlanCacheEntriesForTest(n int) (restore func()) {
	old := maxPlanCacheEntries
	maxPlanCacheEntries = n
	return func() { maxPlanCacheEntries = old }
}

// CatalogInputs returns the bound inputs the current generation of a dataset
// owns, by variable name — tests use it to assert that every query over one
// generation shares one conversion, and that a mutation releases it.
func CatalogInputs(c *Catalog, dataset string) map[string]*runner.Input {
	e, ok := c.entry(dataset)
	if !ok {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return maps.Clone(e.inputs)
}

// BoundInputs returns the inputs a session query's runs bind, after
// re-resolving it against the catalog like Run.
func BoundInputs(sq *SessionQuery) runner.Inputs {
	_, inputs, err := sq.current()
	if err != nil {
		return nil
	}
	return inputs
}

// CatalogIndexes returns the index set of a dataset's current generation.
func CatalogIndexes(c *Catalog, dataset string) *index.Set {
	e, ok := c.entry(dataset)
	if !ok {
		return nil
	}
	return e.idx
}

// CatalogInput returns the bound input a dataset's current generation owns
// under variable v, creating it as a session's resolve would.
func CatalogInput(c *Catalog, dataset, v string) *runner.Input {
	e, ok := c.entry(dataset)
	if !ok {
		return nil
	}
	return e.input(v)
}

// CatalogChunkRows returns the row counts of a dataset's chunks, in order.
func CatalogChunkRows(c *Catalog, dataset string) []int {
	e, ok := c.entry(dataset)
	if !ok {
		return nil
	}
	out := make([]int, len(e.chunks))
	for i, ch := range e.chunks {
		out[i] = len(ch.Bag)
	}
	return out
}
