package trance

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"github.com/trance-go/trance/internal/dataflow"
	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/ingest"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/parse"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/stats"
	"github.com/trance-go/trance/internal/trace"
	"github.com/trance-go/trance/internal/value"
)

// Catalog is a registry of named, typed nested datasets — the serving-side
// answer to hand-assembling Env + input maps: data is registered once (from
// Go values or straight from JSON, with the schema inferred), and sessions
// resolve queries' free variables against it. All methods are safe for
// concurrent use. Datasets mutate only through the catalog (Append, Delete,
// DeleteWhere — never mutate a registered bag directly): every mutation
// installs a fresh immutable entry under a new generation, maintaining the
// dataset's statistics and secondary indexes, so queries already running keep
// a consistent snapshot while a session's next Run re-resolves against the
// new generation (see docs/INDEXES.md).
type Catalog struct {
	mu      sync.RWMutex
	entries map[string]*catalogEntry
	order   []string
	nextGen int64
}

// catalogEntry is one immutable registration generation of a dataset. Every
// mutation (Append, Delete, CreateIndex, Drop + Register) replaces the entry
// pointer wholesale rather than editing it, which is what makes concurrent
// readers (resolve, Analyze's install check, running queries holding the bag)
// race-free without copying data per read.
type catalogEntry struct {
	info DatasetInfo
	bag  Bag
	// gen distinguishes generations of the same name (mutations and Drop +
	// Register alike): session row caches, cached statistics, and prepared
	// plans key on it, so a changed dataset never serves stale converted rows
	// or stale plan decisions.
	gen int64
	// stats are the dataset's collected statistics (stats.Collect at
	// registration; recollected by mutations and Analyze). Generation-stamped
	// with gen.
	stats *stats.Table
	// idx holds the dataset's secondary indexes: auto-built at registration
	// for columns the statistics flag as selective, extended by CreateIndex,
	// maintained incrementally by Append and rebuilt by Delete.
	idx *index.Set
	// auto marks the idx columns that were auto-built (statistics-driven)
	// rather than requested via CreateIndex.
	auto map[string]bool
}

// DatasetInfo describes one catalog entry.
type DatasetInfo struct {
	// Name is the catalog key (and the variable name queries use, unless a
	// session rebinds it).
	Name string
	// Type is the dataset's bag type — declared at Register, inferred at
	// RegisterJSON.
	Type Type
	// Rows is the top-level element count.
	Rows int
	// Bytes is the approximate in-memory footprint (value.Size).
	Bytes int64
	// Source records how the dataset was registered: "go" or "json".
	Source string
}

// NewCatalog creates an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{entries: map[string]*catalogEntry{}}
}

// Register adds a dataset under name with an explicit bag type. The values
// are structurally validated against the type up front, so a mismatch is a
// registration error here rather than an engine failure at query time.
func (c *Catalog) Register(name string, t Type, b Bag) error {
	bt, ok := t.(nrc.BagType)
	if !ok {
		return fmt.Errorf("catalog: dataset %s: type must be a bag, got %s", name, t)
	}
	if err := conforms(b, bt); err != nil {
		return fmt.Errorf("catalog: dataset %s: %w", name, err)
	}
	_, err := c.add(name, bt, b, "go")
	return err
}

// RegisterJSON ingests a dataset from JSON — NDJSON (one value per row) or a
// single JSON array — inferring its nested type: objects become tuples,
// arrays become bags, with null and int→real widening across rows and
// yyyy-mm-dd strings read as dates (see internal/ingest). Irreconcilable
// rows yield a descriptive error naming the JSON path.
func (c *Catalog) RegisterJSON(name string, r io.Reader) (DatasetInfo, error) {
	ds, err := ingest.ReadJSON(r)
	if err != nil {
		return DatasetInfo{}, fmt.Errorf("catalog: dataset %s: %w", name, err)
	}
	return c.add(name, ds.Type, ds.Bag, "json")
}

// ErrDatasetExists reports a Register/RegisterJSON collision with an
// existing dataset (check with errors.Is; Drop first to replace).
var ErrDatasetExists = errors.New("dataset already registered")

func (c *Catalog) add(name string, t nrc.BagType, b Bag, source string) (DatasetInfo, error) {
	if name == "" {
		return DatasetInfo{}, fmt.Errorf("catalog: dataset name must not be empty")
	}
	// Collect statistics and build the auto indexes outside the lock — both
	// are full passes over the data.
	st := stats.Collect(b, t, stats.Options{})
	idx, auto := autoIndexes(b, t, st)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[name]; dup {
		return DatasetInfo{}, fmt.Errorf("catalog: dataset %s: %w", name, ErrDatasetExists)
	}
	info := DatasetInfo{Name: name, Type: t, Rows: len(b), Bytes: value.Size(b), Source: source}
	c.nextGen++
	st.Generation = c.nextGen
	c.entries[name] = &catalogEntry{info: info, bag: b, gen: c.nextGen, stats: st, idx: idx, auto: auto}
	c.order = append(c.order, name)
	return info, nil
}

// autoIndexes builds the registration-time secondary indexes of a dataset:
// one hash+range index per column the statistics flag as selective (see
// stats.Table.SelectiveColumns). Build refusals (label columns, mixed-type
// keys) are counted under their reason (Counters' index.refusal_reasons) and
// skipped.
func autoIndexes(b Bag, bt nrc.BagType, st *stats.Table) (*index.Set, map[string]bool) {
	set := index.NewSet()
	var auto map[string]bool
	for _, col := range st.SelectiveColumns() {
		vals, ok := columnValues(b, bt, col)
		if !ok {
			continue
		}
		ci, err := index.Build(col, true, true, vals)
		if err != nil {
			continue
		}
		set.Put(ci)
		if auto == nil {
			auto = map[string]bool{}
		}
		auto[col] = true
	}
	return set, auto
}

// columnOffset finds a top-level scalar column's tuple offset ("_value" for
// scalar-element bags); -1 when the column is absent or not scalar.
func columnOffset(bt nrc.BagType, col string) int {
	if tt, ok := bt.Elem.(nrc.TupleType); ok {
		for i, f := range tt.Fields {
			if f.Name == col {
				if _, scalar := f.Type.(nrc.ScalarType); scalar {
					return i
				}
				return -1
			}
		}
		return -1
	}
	if _, scalar := bt.Elem.(nrc.ScalarType); scalar && col == "_value" {
		return 0
	}
	return -1
}

// columnValues extracts one top-level scalar column of a bag; vals[i] is the
// key of row i (nil for NULL).
func columnValues(b Bag, bt nrc.BagType, col string) ([]value.Value, bool) {
	off := columnOffset(bt, col)
	if off < 0 {
		return nil, false
	}
	vals := make([]value.Value, len(b))
	for i, e := range b {
		if t, ok := e.(value.Tuple); ok {
			vals[i] = t[off]
		} else {
			vals[i] = e
		}
	}
	return vals, true
}

// replace installs a successor entry under name, bumping the catalog
// generation, provided old is still the current entry. Mutations are
// optimistic: the expensive work (copying, statistics, index maintenance)
// happens outside the lock, and a caller that lost the race retries over the
// winner's data. mk receives the fresh generation.
func (c *Catalog) replace(name string, old *catalogEntry, mk func(gen int64) *catalogEntry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.entries[name]; !ok || cur != old {
		return false
	}
	c.nextGen++
	c.entries[name] = mk(c.nextGen)
	return true
}

// entry returns the current immutable entry of a dataset.
func (c *Catalog) entry(name string) (*catalogEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[name]
	return e, ok
}

// IndexInfo describes one secondary index of a catalog dataset.
type IndexInfo struct {
	// Dataset and Column name the indexed data.
	Dataset string
	Column  string
	// Kind is "hash", "range", or "hash+range".
	Kind string
	// Keys is the number of distinct non-NULL keys; Nulls counts the NULL
	// rows every span excludes; Rows is the covered row count.
	Keys, Nulls, Rows int64
	// Generation is the dataset generation the index describes.
	Generation int64
	// Auto reports a registration-time statistics-driven build rather than an
	// explicit CreateIndex.
	Auto bool
}

func indexInfoOf(dataset string, ci *index.ColumnIndex, gen int64, auto bool) IndexInfo {
	return IndexInfo{
		Dataset: dataset, Column: ci.Col, Kind: ci.KindString(),
		Keys: ci.Keys(), Nulls: ci.Nulls(), Rows: int64(ci.Len()),
		Generation: gen, Auto: auto,
	}
}

// CreateIndex builds a secondary index on a dataset column on demand: kind is
// "hash" (equality spans), "range"/"ordered" (range spans), or ""/"both".
// An existing index on the column keeps its structures — kinds accumulate.
// The build runs outside the catalog lock; installing it bumps the dataset's
// generation so sessions re-plan with the index available.
func (c *Catalog) CreateIndex(dataset, column, kind string) (IndexInfo, error) {
	wantHash, wantOrdered, err := index.ParseKind(kind)
	if err != nil {
		return IndexInfo{}, fmt.Errorf("catalog: dataset %s: %w", dataset, err)
	}
	for {
		e, ok := c.entry(dataset)
		if !ok {
			return IndexInfo{}, fmt.Errorf("catalog: dataset %s is not registered", dataset)
		}
		h, o := wantHash, wantOrdered
		if old := e.idx.Column(column); old != nil {
			h = h || old.HasHash()
			o = o || old.HasOrdered()
		}
		vals, ok := columnValues(e.bag, e.info.Type.(nrc.BagType), column)
		if !ok {
			return IndexInfo{}, fmt.Errorf("catalog: dataset %s has no top-level scalar column %q", dataset, column)
		}
		ci, err := index.Build(column, h, o, vals)
		if err != nil {
			return IndexInfo{}, fmt.Errorf("catalog: dataset %s: %w", dataset, err)
		}
		var out IndexInfo
		if c.replace(dataset, e, func(gen int64) *catalogEntry {
			ne := e.successor(gen)
			ne.idx = e.idx.Clone()
			ne.idx.Put(ci)
			if e.auto[column] {
				ne.auto = make(map[string]bool, len(e.auto))
				for k, v := range e.auto {
					ne.auto[k] = v
				}
				delete(ne.auto, column)
			}
			out = indexInfoOf(dataset, ci, gen, false)
			return ne
		}) {
			return out, nil
		}
	}
}

// Indexes lists a dataset's secondary indexes in column-name order.
func (c *Catalog) Indexes(name string) ([]IndexInfo, bool) {
	e, ok := c.entry(name)
	if !ok {
		return nil, false
	}
	var out []IndexInfo
	for _, col := range e.idx.Names() {
		out = append(out, indexInfoOf(name, e.idx.Column(col), e.gen, e.auto[col]))
	}
	return out, true
}

// successor copies the entry under a fresh generation, re-stamping the
// statistics; callers overwrite the fields the mutation changed.
func (e *catalogEntry) successor(gen int64) *catalogEntry {
	st := *e.stats
	st.Generation = gen
	return &catalogEntry{info: e.info, bag: e.bag, gen: gen, stats: &st, idx: e.idx, auto: e.auto}
}

// Append adds rows to a registered dataset. The rows are validated against
// the dataset's element type up front, statistics are recollected over the
// combined data, and every secondary index is maintained incrementally
// (index extension over the tail — Counters' index.maintained). The new entry
// carries a fresh generation, so a session's next Run re-resolves data,
// statistics, and plans — an append is never served from stale rows or a
// stale plan — while queries already executing keep their snapshot.
func (c *Catalog) Append(name string, rows Bag) (DatasetInfo, error) {
	if len(rows) == 0 {
		info, ok := c.Info(name)
		if !ok {
			return DatasetInfo{}, fmt.Errorf("catalog: dataset %s is not registered", name)
		}
		return info, nil
	}
	for {
		e, ok := c.entry(name)
		if !ok {
			return DatasetInfo{}, fmt.Errorf("catalog: dataset %s is not registered", name)
		}
		bt := e.info.Type.(nrc.BagType)
		if err := conforms(rows, bt); err != nil {
			return DatasetInfo{}, fmt.Errorf("catalog: dataset %s: append: %w", name, err)
		}
		nb := make(Bag, 0, len(e.bag)+len(rows))
		nb = append(append(nb, e.bag...), rows...)
		st := stats.Collect(nb, bt, stats.Options{})
		nidx := index.NewSet()
		for _, col := range e.idx.Names() {
			tail, ok := columnValues(rows, bt, col)
			if !ok {
				continue
			}
			ci, err := e.idx.Column(col).Extend(tail)
			if err != nil {
				// The tail broke the index's key invariant (cannot happen for
				// conforming rows, but Extend is defensive): rebuild outright.
				old := e.idx.Column(col)
				vals, vok := columnValues(nb, bt, col)
				if !vok {
					continue
				}
				if ci, err = index.Build(col, old.HasHash(), old.HasOrdered(), vals); err != nil {
					continue
				}
				index.RecordRebuild()
			}
			nidx.Put(ci)
		}
		var out DatasetInfo
		if c.replace(name, e, func(gen int64) *catalogEntry {
			st.Generation = gen
			info := e.info
			info.Rows = len(nb)
			info.Bytes = value.Size(nb)
			out = info
			return &catalogEntry{info: info, bag: nb, gen: gen, stats: st, idx: nidx, auto: e.auto}
		}) {
			return out, nil
		}
	}
}

// AppendJSON is Append over a JSON body — NDJSON or a single JSON array, as
// RegisterJSON reads — converted against the dataset's registered element
// type. It returns the updated info and how many rows the body held.
func (c *Catalog) AppendJSON(name string, r io.Reader) (DatasetInfo, int, error) {
	e, ok := c.entry(name)
	if !ok {
		return DatasetInfo{}, 0, fmt.Errorf("catalog: dataset %s is not registered", name)
	}
	rows, err := ingest.ReadJSONAs(r, e.info.Type.(nrc.BagType).Elem)
	if err != nil {
		return DatasetInfo{}, 0, fmt.Errorf("catalog: dataset %s: append: %w", name, err)
	}
	info, err := c.Append(name, rows)
	return info, len(rows), err
}

// DeleteJSON is Delete with the key given as a JSON scalar literal (the form
// an HTTP parameter arrives in), parsed against the column's registered type;
// unquoted text is accepted for string and date columns.
func (c *Catalog) DeleteJSON(name, column, raw string) (int, error) {
	e, ok := c.entry(name)
	if !ok {
		return 0, fmt.Errorf("catalog: dataset %s is not registered", name)
	}
	st, ok := columnScalarType(e.info.Type.(nrc.BagType), column)
	if !ok {
		return 0, fmt.Errorf("catalog: dataset %s has no top-level scalar column %q", name, column)
	}
	v, err := ingest.ScalarFromJSON(raw, st)
	if err != nil {
		return 0, fmt.Errorf("catalog: dataset %s: delete: %w", name, err)
	}
	return c.Delete(name, column, v)
}

// columnScalarType resolves a top-level scalar column's type (the "_value"
// pseudo-column for scalar-element bags, mirroring columnOffset).
func columnScalarType(bt nrc.BagType, col string) (nrc.ScalarType, bool) {
	if tt, ok := bt.Elem.(nrc.TupleType); ok {
		for _, f := range tt.Fields {
			if f.Name == col {
				st, scalar := f.Type.(nrc.ScalarType)
				return st, scalar
			}
		}
		return nrc.ScalarType{}, false
	}
	if st, scalar := bt.Elem.(nrc.ScalarType); scalar && col == "_value" {
		return st, true
	}
	return nrc.ScalarType{}, false
}

// Delete removes every row whose column equals v (the engine's value.Compare
// equality, so 5 matches 5.0; a NULL column value matches nothing) and
// returns the number removed. Statistics are recollected and the dataset's
// indexes rebuilt over the surviving rows (Counters' index.rebuilt); the
// generation bump invalidates prepared routes exactly like Append.
func (c *Catalog) Delete(name, column string, v Value) (int, error) {
	if v == nil {
		return 0, fmt.Errorf("catalog: dataset %s: delete key must not be NULL", name)
	}
	return c.deleteWhere(name, func(bt nrc.BagType) (func(Value) bool, error) {
		off := columnOffset(bt, column)
		if off < 0 {
			return nil, fmt.Errorf("no top-level scalar column %q", column)
		}
		return func(el Value) bool {
			var cv Value
			if t, ok := el.(value.Tuple); ok {
				cv = t[off]
			} else {
				cv = el
			}
			return cv != nil && value.Compare(cv, v) == 0
		}, nil
	})
}

// DeleteWhere removes every top-level row matching pred and returns the
// number removed; index and statistics maintenance and generation semantics
// are those of Delete. pred must be pure — it may run more than once per row
// when a concurrent mutation forces a retry.
func (c *Catalog) DeleteWhere(name string, pred func(Value) bool) (int, error) {
	return c.deleteWhere(name, func(nrc.BagType) (func(Value) bool, error) { return pred, nil })
}

func (c *Catalog) deleteWhere(name string, mk func(nrc.BagType) (func(Value) bool, error)) (int, error) {
	for {
		e, ok := c.entry(name)
		if !ok {
			return 0, fmt.Errorf("catalog: dataset %s is not registered", name)
		}
		bt := e.info.Type.(nrc.BagType)
		pred, err := mk(bt)
		if err != nil {
			return 0, fmt.Errorf("catalog: dataset %s: delete: %w", name, err)
		}
		nb := make(Bag, 0, len(e.bag))
		for _, el := range e.bag {
			if !pred(el) {
				nb = append(nb, el)
			}
		}
		removed := len(e.bag) - len(nb)
		if removed == 0 {
			return 0, nil
		}
		st := stats.Collect(nb, bt, stats.Options{})
		nidx := rebuildIndexes(e.idx, nb, bt)
		if c.replace(name, e, func(gen int64) *catalogEntry {
			st.Generation = gen
			info := e.info
			info.Rows = len(nb)
			info.Bytes = value.Size(nb)
			return &catalogEntry{info: info, bag: nb, gen: gen, stats: st, idx: nidx, auto: e.auto}
		}) {
			return removed, nil
		}
	}
}

// rebuildIndexes rebuilds every index of a set over new data — deletions
// invalidate row positions wholesale. Each rebuild is counted
// (Counters' index.rebuilt); a column that is no longer indexable is dropped.
func rebuildIndexes(old *index.Set, b Bag, bt nrc.BagType) *index.Set {
	out := index.NewSet()
	for _, col := range old.Names() {
		oc := old.Column(col)
		vals, ok := columnValues(b, bt, col)
		if !ok {
			continue
		}
		ci, err := index.Build(col, oc.HasHash(), oc.HasOrdered(), vals)
		if err != nil {
			continue
		}
		index.RecordRebuild()
		out.Put(ci)
	}
	return out
}

// Stats returns a dataset's collected statistics (row/byte counts, per-column
// NDV, min/max, heavy-key histograms), stamped with the registration
// generation they describe. The table is shared — treat it as read-only.
func (c *Catalog) Stats(name string) (*DatasetStats, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, false
	}
	return e.stats, true
}

// Analyze recollects a dataset's statistics with the given options and stores
// them, returning the fresh table. Registration already collects statistics
// with default options; Analyze is for tuning collection (sketch size, skew
// threshold) after the fact.
func (c *Catalog) Analyze(name string, opts StatsOptions) (*DatasetStats, error) {
	c.mu.RLock()
	e, ok := c.entries[name]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("catalog: dataset %s is not registered", name)
	}
	bt := e.info.Type.(nrc.BagType)
	st := stats.Collect(e.bag, bt, opts)
	st.Generation = e.gen
	c.mu.Lock()
	// Re-registration between the reads and here moves the name to a new
	// entry; only stamp the entry the statistics describe.
	if cur, ok := c.entries[name]; ok && cur == e {
		cur.stats = st
	}
	c.mu.Unlock()
	return st, nil
}

// Drop removes a dataset. Session queries prepared before the Drop keep
// serving their last snapshot while no dataset is registered under the name;
// re-registering one makes their next Run re-resolve to it.
func (c *Catalog) Drop(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[name]; !ok {
		return false
	}
	delete(c.entries, name)
	for i, n := range c.order {
		if n == name {
			c.order = append(c.order[:i:i], c.order[i+1:]...)
			break
		}
	}
	return true
}

// Names lists the registered datasets in registration order.
func (c *Catalog) Names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.order...)
}

// List returns every dataset's info in registration order.
func (c *Catalog) List() []DatasetInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(c.order))
	for _, n := range c.order {
		out = append(out, c.entries[n].info)
	}
	return out
}

// Info returns one dataset's info.
func (c *Catalog) Info(name string) (DatasetInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[name]
	if !ok {
		return DatasetInfo{}, false
	}
	return e.info, true
}

// Data returns a dataset's values and type. The bag is shared, not copied —
// treat it as read-only.
func (c *Catalog) Data(name string) (Bag, Type, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[name]
	if !ok {
		return nil, nil, false
	}
	return e.bag, e.info.Type, true
}

// Env returns the environment of every registered dataset — what
// trance.Check needs to typecheck a query against the whole catalog.
func (c *Catalog) Env() Env {
	c.mu.RLock()
	defer c.mu.RUnlock()
	env := Env{}
	for n, e := range c.entries {
		env[n] = e.info.Type
	}
	return env
}

// UnknownDatasetError reports a query variable that resolved to no catalog
// dataset. Layers that parsed the query from text use Var to point a caret
// at the unresolved reference.
type UnknownDatasetError struct {
	// Var is the variable name the query used.
	Var string
	// Dataset is the catalog name it resolved to (differs from Var only
	// under session bindings).
	Dataset string
	// Have lists the registered dataset names.
	Have []string
}

func (e *UnknownDatasetError) Error() string {
	return fmt.Sprintf("catalog: query references %s, but no dataset %q is registered (have: %v)",
		e.Var, e.Dataset, e.Have)
}

// resolve snapshots the env, data, entry generations, table statistics, and
// secondary indexes for the given variable names, applying the session's
// bindings. Statistics of indexed columns carry the index flags the planner's
// Select→IndexScan conversion keys on, and indexed datasets additionally
// publish their estimate under the shredded top-component name — value
// shredding preserves top-level row order and scalar column positions, so the
// same indexes (re-keyed by runner.Compiled.MapIndexes) serve both routes.
func (c *Catalog) resolve(vars []string, bindings map[string]string) (Env, map[string]Bag, map[string]int64, map[string]plan.TableEstimate, map[string]*index.Set, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	env := Env{}
	inputs := map[string]Bag{}
	gens := map[string]int64{}
	ests := map[string]plan.TableEstimate{}
	var idxs map[string]*index.Set
	for _, v := range vars {
		ds := v
		if b, ok := bindings[v]; ok {
			ds = b
		}
		e, ok := c.entries[ds]
		if !ok {
			return nil, nil, nil, nil, nil, &UnknownDatasetError{Var: v, Dataset: ds, Have: append([]string(nil), c.order...)}
		}
		env[v] = e.info.Type
		inputs[v] = e.bag
		gens[v] = e.gen
		if e.stats == nil {
			continue
		}
		te := e.stats.Estimate()
		if e.idx.Len() > 0 {
			for _, col := range e.idx.Names() {
				ci := e.idx.Column(col)
				ce := te.Cols[col]
				ce.IndexHash = ci.HasHash()
				ce.IndexOrdered = ci.HasOrdered()
				te.Cols[col] = ce
			}
			ests[shred.MatName(v, nil)] = te
			if idxs == nil {
				idxs = map[string]*index.Set{}
			}
			idxs[v] = e.idx
		}
		ests[v] = te
	}
	return env, inputs, gens, ests, idxs, nil
}

// generationsUnchanged reports whether every dataset the variables resolve to
// still carries the given generation — the sessions' cheap staleness probe
// (one read-locked map walk per Run).
func (c *Catalog) generationsUnchanged(vars []string, bindings map[string]string, gens map[string]int64) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, v := range vars {
		ds := v
		if b, ok := bindings[v]; ok {
			ds = b
		}
		e, ok := c.entries[ds]
		if !ok || e.gen != gens[v] {
			return false
		}
	}
	return true
}

// conforms structurally validates a value against a type. NULL conforms to
// everything (the engine's outer joins introduce it freely).
func conforms(v Value, t Type) error {
	if v == nil {
		return nil
	}
	switch tt := t.(type) {
	case nrc.BagType:
		b, ok := v.(Bag)
		if !ok {
			return fmt.Errorf("expected bag for %s, got %T", tt, v)
		}
		for i, e := range b {
			if err := conforms(e, tt.Elem); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
		return nil
	case nrc.TupleType:
		tp, ok := v.(Tuple)
		if !ok {
			return fmt.Errorf("expected tuple for %s, got %T", tt, v)
		}
		if len(tp) != len(tt.Fields) {
			return fmt.Errorf("tuple has %d fields, type %s has %d", len(tp), tt, len(tt.Fields))
		}
		for i, f := range tt.Fields {
			if err := conforms(tp[i], f.Type); err != nil {
				return fmt.Errorf("field %s: %w", f.Name, err)
			}
		}
		return nil
	case nrc.ScalarType:
		ok := false
		switch tt.Kind {
		case nrc.Int:
			_, ok = v.(int64)
		case nrc.Real:
			_, ok = v.(float64)
		case nrc.String:
			_, ok = v.(string)
		case nrc.Bool:
			_, ok = v.(bool)
		case nrc.DateK:
			_, ok = v.(Date)
		}
		if !ok {
			return fmt.Errorf("expected %s, got %T", tt, v)
		}
		return nil
	case nrc.LabelType:
		if _, ok := v.(Label); !ok {
			return fmt.Errorf("expected label, got %T", v)
		}
		return nil
	}
	return fmt.Errorf("unsupported type %s", t)
}

// SessionOptions configures a catalog session.
type SessionOptions struct {
	// Config sizes the simulated cluster; nil means DefaultConfig().
	Config *Config
	// Pool overrides the worker pool the session's queries run on. Nil uses
	// a pool sized by Config.Workers when set, else the process default.
	Pool *Pool
	// Bindings maps query variable names to catalog dataset names when they
	// differ (e.g. a query over "NDB" served from the dataset "tpch/ndb-l2").
	// Unlisted variables resolve to the dataset of the same name.
	Bindings map[string]string
}

// Session prepares and runs queries whose free variables resolve against a
// catalog. A session query is generation-aware: each Run probes the catalog
// and, when any referenced dataset mutated since the last resolution (Append,
// Delete, CreateIndex, Drop + re-Register), re-resolves data, statistics, and
// indexes and re-prepares through the plan cache — a mutation is never served
// from stale rows or a stale plan. Runs already executing keep the snapshot
// they started with; a dataset that is dropped and not re-registered keeps
// serving its last snapshot. Sessions are safe for concurrent use.
//
// A session shares converted input rows across everything it prepares: the
// nested→engine-row conversion (value shredding on shredded routes) of each
// (variable, dataset generation, route) happens once per session, no matter
// how many queries reference the dataset — so a service preparing many
// ad-hoc text queries over one dataset holds one converted copy, not one per
// query.
type Session struct {
	cat  *Catalog
	cfg  Config
	pool *Pool
	bind map[string]string

	rowMu    sync.Mutex
	rowCache map[string]*sharedRows
}

// sharedRows is one (variable, dataset generation, route) conversion slot;
// once guarantees a single conversion under concurrent first use.
type sharedRows struct {
	once sync.Once
	rows map[string][]dataflow.Row
	err  error
}

// NewSession creates a session over the catalog.
func (c *Catalog) NewSession(opts SessionOptions) *Session {
	cfg := DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	pool := poolFor(cfg, opts.Pool)
	bind := map[string]string{}
	for k, v := range opts.Bindings {
		bind[k] = v
	}
	return &Session{cat: c, cfg: cfg, pool: pool, bind: bind, rowCache: map[string]*sharedRows{}}
}

// converter builds the per-input conversion hook installed on the prepared
// data of every query this session prepares: rows convert once per
// (variable, dataset generation, route kind) and are shared session-wide.
func (s *Session) converter(gens map[string]int64) func(cq *runner.Compiled, name string, b Bag) (map[string][]dataflow.Row, error) {
	return func(cq *runner.Compiled, name string, b Bag) (map[string][]dataflow.Row, error) {
		key := fmt.Sprintf("%s\x00%d\x00%t", name, gens[name], cq.Strategy.IsShredded())
		s.rowMu.Lock()
		e, ok := s.rowCache[key]
		if !ok {
			e = &sharedRows{}
			s.rowCache[key] = e
		}
		s.rowMu.Unlock()
		e.once.Do(func() {
			e.rows, e.err = cq.InputRowsOne(name, b)
		})
		return e.rows, e.err
	}
}

// pruneRows drops cached conversions of superseded generations: a mutating
// dataset must not pin the converted rows of every generation it ever had.
// Conversions another query is still serving re-enter the cache on their next
// first use (their PreparedData keeps its own reference meanwhile).
func (s *Session) pruneRows(gens map[string]int64) {
	s.rowMu.Lock()
	defer s.rowMu.Unlock()
	for key := range s.rowCache {
		name, rest, ok := strings.Cut(key, "\x00")
		if !ok {
			continue
		}
		genStr, _, _ := strings.Cut(rest, "\x00")
		if keep, tracked := gens[name]; tracked && genStr != fmt.Sprint(keep) {
			delete(s.rowCache, key)
		}
	}
}

// Prepare resolves the query's free variables against the catalog,
// typechecks and sets up compile-once evaluation (see Prepare), and binds
// the resolved datasets for repeated runs (see PreparedQuery.BindData). The
// session takes ownership of the query's AST.
func (s *Session) Prepare(q Expr) (*SessionQuery, error) { return s.PrepareNamed("", q) }

// PrepareNamed is Prepare with a label used in errors and metrics.
func (s *Session) PrepareNamed(name string, q Expr) (*SessionQuery, error) {
	return s.newQuery(nrc.FreeVars(q), func(opts PrepareOptions) (*PreparedQuery, error) {
		opts.Name = name
		return Prepare(q, opts)
	})
}

// PreparePipeline is Prepare for a multi-step program (see PreparePipeline):
// the steps' free variables (outputs of earlier steps are not free) resolve
// against the catalog, repeated runs hit the plan cache for every step and
// re-resolve when a referenced dataset mutates.
func (s *Session) PreparePipeline(steps []PipelineStep) (*SessionQuery, error) {
	asg := make([]nrc.Assignment, len(steps))
	for i, st := range steps {
		asg[i] = nrc.Assignment{Name: st.Name, Expr: st.Query}
	}
	return s.newQuery(nrc.FreeVarsProgram(asg), func(opts PrepareOptions) (*PreparedQuery, error) {
		return PreparePipeline(steps, opts)
	})
}

func (s *Session) newQuery(vars map[string]bool, prepare func(PrepareOptions) (*PreparedQuery, error)) (*SessionQuery, error) {
	sq := &SessionQuery{s: s, prepare: prepare, vars: make([]string, 0, len(vars))}
	for v := range vars {
		sq.vars = append(sq.vars, v)
	}
	sort.Strings(sq.vars)
	sq.mu.Lock()
	defer sq.mu.Unlock()
	if err := sq.refreshLocked(); err != nil {
		return nil, err
	}
	return sq, nil
}

// PrepareText parses a query written in the textual surface syntax (see
// docs/QUERYLANG.md and trance.Parse) and prepares it against the catalog
// exactly like Prepare: free variables resolve to datasets (respecting the
// session's bindings), the compilation goes through the process-wide bounded
// plan cache under the query's fingerprint, and the resolved data is bound
// once for repeated runs. Lex, parse, resolution, and type errors all come
// back as position-tracked caret diagnostics pointing into src — never a
// panic.
func (s *Session) PrepareText(name, src string) (*SessionQuery, error) {
	r, err := parse.Query(src)
	if err != nil {
		return nil, err
	}
	sq, err := s.PrepareNamed(name, r.Expr)
	if err != nil {
		return nil, diagnose(&r.Source, err)
	}
	return sq, nil
}

// PrepareTextPipeline parses a multi-statement program (trance.ParseProgram:
// `name := expr;` assignments ending in a result expression) and prepares it
// against the catalog like PreparePipeline. Errors carry caret diagnostics
// like PrepareText.
func (s *Session) PrepareTextPipeline(src string) (*SessionQuery, error) {
	r, err := parse.Program(src)
	if err != nil {
		return nil, err
	}
	sq, err := s.PreparePipeline(ProgramSteps(r.Program))
	if err != nil {
		return nil, diagnose(&r.Source, err)
	}
	return sq, nil
}

// diagnose points a prepare-time error back into parsed query text: type
// errors via the node position map, unresolved datasets via the first
// occurrence of the offending variable. Errors with no known position pass
// through unchanged.
func diagnose(src *parse.Source, err error) error {
	var ue *UnknownDatasetError
	if errors.As(err, &ue) {
		if node, ok := src.FirstVar(ue.Var); ok {
			return src.ErrorAt(node, err.Error())
		}
	}
	return src.Diagnose(err)
}

// SessionQuery is a query or multi-step program prepared against a catalog:
// compiled plans come from the process-wide plan cache, input conversion is
// cached per route, any number of goroutines may Run concurrently, and every
// Run re-resolves against the catalog when a referenced dataset's generation
// moved (see Session).
type SessionQuery struct {
	s       *Session
	prepare func(PrepareOptions) (*PreparedQuery, error)
	vars    []string

	mu   sync.Mutex // guards the cached resolution below
	pq   *PreparedQuery
	data *PreparedData
	gens map[string]int64
}

// refreshLocked re-resolves the query against the catalog's current
// generations and re-prepares it. Caller holds sq.mu.
func (sq *SessionQuery) refreshLocked() error {
	s := sq.s
	env, inputs, gens, ests, idxs, err := s.cat.resolve(sq.vars, s.bind)
	if err != nil {
		return err
	}
	cfg := s.cfg
	if len(ests) > 0 {
		cfg.Stats = ests
	}
	opts := PrepareOptions{Env: env, Config: &cfg, Pool: s.pool}
	// Re-preparing shares the ASTs with the prior generation's prepared query,
	// and both Prepare's typecheck and lazy compilation annotate them in place
	// — so every generation serializes on one compile mutex.
	var pq *PreparedQuery
	if sq.pq != nil {
		mu := sq.pq.compileMu
		mu.Lock()
		pq, err = sq.prepare(opts)
		if pq != nil {
			pq.compileMu = mu
		}
		mu.Unlock()
	} else {
		pq, err = sq.prepare(opts)
	}
	if err != nil {
		return err
	}
	data := pq.BindData(inputs)
	data.convert = s.converter(gens)
	data.idxs = idxs
	s.pruneRows(gens)
	sq.pq, sq.data, sq.gens = pq, data, gens
	return nil
}

// current returns the prepared artifacts for a run, re-resolving when any
// referenced dataset's generation moved. The staleness probe is one
// read-locked walk; a refresh re-prepares through the plan cache (a
// generation-stamped fingerprint, so unchanged plans are cache hits).
func (sq *SessionQuery) current() (*PreparedQuery, *PreparedData, error) {
	sq.mu.Lock()
	defer sq.mu.Unlock()
	if sq.s.cat.generationsUnchanged(sq.vars, sq.s.bind, sq.gens) {
		return sq.pq, sq.data, nil
	}
	if err := sq.refreshLocked(); err != nil {
		// A referenced dataset was dropped without a replacement: keep
		// serving the last snapshot rather than failing the serving path.
		var ue *UnknownDatasetError
		if !errors.As(err, &ue) {
			return nil, nil, err
		}
	}
	return sq.pq, sq.data, nil
}

// Prepared exposes the underlying prepared query (output type, schema,
// fingerprint, explain), refreshed against the catalog like Run; when the
// refresh fails it is the last one that resolved.
func (sq *SessionQuery) Prepared() *PreparedQuery {
	if pq, _, err := sq.current(); err == nil {
		return pq
	}
	sq.mu.Lock()
	defer sq.mu.Unlock()
	return sq.pq
}

// Run evaluates the query under the strategy over the current catalog
// generations of the referenced datasets (re-resolving after mutations; see
// Session), exactly like PreparedQuery.Run over the data the session bound —
// plus a resolve span when ctx carries a trace. The Result's rows, Columns
// and plans all come from the one generation the run resolved to.
func (sq *SessionQuery) Run(ctx context.Context, strat Strategy, opts ...RunOption) (*Result, error) {
	rsp := trace.From(ctx).Span().Child("resolve")
	pq, data, err := sq.current()
	if err == nil {
		rsp.Set("query", pq.label())
	}
	rsp.End()
	if err != nil {
		return nil, err
	}
	return pq.Run(ctx, data, strat, opts...)
}

// RunJSON is Run plus Result.JSON: the result rows rendered as objects typed
// by the run's own output schema — the query half of the catalog's JSON-in →
// query → JSON-out round trip. Rows come back in the engine's canonical
// sorted order, so output is deterministic.
func (sq *SessionQuery) RunJSON(ctx context.Context, strat Strategy) ([]map[string]any, error) {
	res, err := sq.Run(ctx, strat)
	if err != nil {
		return nil, err
	}
	esp := trace.From(ctx).Span().Child("encode")
	defer esp.End()
	rows, _ := res.JSON(0)
	return rows, nil
}
