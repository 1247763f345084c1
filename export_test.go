package trance

import (
	"maps"

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
	_, data, err := sq.current()
	if err != nil {
		return nil
	}
	return data.inputs
}
