package trance

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/trance-go/trance/internal/index"
	"github.com/trance-go/trance/internal/ingest"
	"github.com/trance-go/trance/internal/nrc"
	"github.com/trance-go/trance/internal/plan"
	"github.com/trance-go/trance/internal/runner"
	"github.com/trance-go/trance/internal/shred"
	"github.com/trance-go/trance/internal/stats"
	"github.com/trance-go/trance/internal/value"
)

// Catalog is a registry of named, typed nested datasets — the serving-side
// answer to hand-assembling Env + input maps: data is registered once (from
// Go values or straight from JSON, with the schema inferred), and sessions
// resolve queries' free variables against it. All methods are safe for
// concurrent use. Datasets mutate only through the catalog (Append, Delete,
// CreateIndex — never mutate a registered bag directly): every mutation
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

// catalogEntry is one immutable registration generation of a dataset, built
// by newGeneration and installed by Catalog.mutate. Every mutation (Append,
// Delete, CreateIndex, Drop + Register) replaces the entry pointer wholesale
// rather than editing it, which is what makes concurrent readers (resolve,
// running queries holding the bag) race-free without copying data per read.
type catalogEntry struct {
	info DatasetInfo
	// chunks are the generation's rows as an ordered list of immutable
	// chunks; a mutation reuses by pointer every chunk it did not change.
	chunks []*chunk
	// gen distinguishes generations of the same name (mutations and Drop +
	// Register alike): session row caches, cached statistics, and prepared
	// plans key on it, so a changed dataset never serves stale converted rows
	// or stale plan decisions.
	gen int64
	// stats are the dataset's statistics, merged from the chunks' and
	// generation-stamped with gen.
	stats *stats.Table
	// idx holds the dataset's secondary indexes (see keepIndexes).
	idx *index.Set
	// auto marks the idx columns that were auto-built (statistics-driven)
	// rather than requested via CreateIndex.
	auto map[string]bool

	flatOnce sync.Once
	flat     Bag // the chunks' rows end to end, built on first use

	// inputs are the generation's bound inputs by the variable name sessions
	// resolved it under (value shredding mints labels from the name). Created
	// on first use, outside the catalog lock, each binds the generation's
	// chunks, whose converted rows and index parts outlive the generation.
	mu     sync.Mutex
	inputs map[string]*runner.Input
}

// chunk is one immutable run of a dataset's rows: its statistics and,
// through runner.Chunk, its converted rows per (variable name, route) and its
// index parts, each derived once and shared by every generation holding the
// chunk.
type chunk struct {
	*runner.Chunk
	stats *stats.Table
}

// chunkSeq numbers the chunks built anywhere in the process. A chunk built at
// position i > 0 of its generation numbers its shredding labels from
// chunkSeq<<32, so no two chunks of a dataset share a label; the chunk at
// position 0 numbers them from 1, so a one-chunk generation shreds exactly as
// an unchunked input does.
var chunkSeq atomic.Int64

// maxChunkSeq is the last chunk number whose label range fits in an int64.
// Past it the base would turn negative and, 2³¹ builds later, come back to 0,
// the range of every dataset's first chunk.
const maxChunkSeq = 1<<31 - 1

var errLabelsExhausted = errors.New("catalog: the process has used up its chunk label ranges")

// newChunk is the one constructor of a chunk: rows b of type bt, placed at
// position pos of the generation being built. It fails, rather than reuse a
// label range, once chunkSeq is past maxChunkSeq.
func newChunk(b Bag, bt nrc.BagType, pos int) (*chunk, error) {
	var base int64
	if pos > 0 {
		seq := chunkSeq.Add(1)
		if seq > maxChunkSeq {
			return nil, errLabelsExhausted
		}
		base = seq << 32
	}
	return &chunk{Chunk: runner.NewChunk(b, bt, base), stats: stats.Collect(b, bt, stats.Options{})}, nil
}

// compact merges adjacent chunks until each holds at least twice the rows of
// the chunk after it — the one compaction rule. A dataset of N rows then has
// at most log₂N+1 chunks, and a row is re-derived O(log N) times over its
// life. cs must not be shared with an installed generation.
func compact(cs []*chunk, bt nrc.BagType) ([]*chunk, error) {
	for i := 0; i+1 < len(cs); {
		a, b := cs[i].Bag, cs[i+1].Bag
		if len(a) >= 2*len(b) {
			i++
			continue
		}
		merged, err := newChunk(append(append(make(Bag, 0, len(a)+len(b)), a...), b...), bt, i)
		if err != nil {
			return nil, err
		}
		cs = slices.Replace(cs, i, i+2, merged)
		i = max(i-1, 0)
	}
	return cs, nil
}

// runnerChunks are the generation's chunks as the runner binds them.
func (e *catalogEntry) runnerChunks() []*runner.Chunk {
	out := make([]*runner.Chunk, len(e.chunks))
	for i, c := range e.chunks {
		out[i] = c.Chunk
	}
	return out
}

// bag returns the generation's rows as one bag: the only chunk's, or the
// chunks' concatenated once on first use.
func (e *catalogEntry) bag() Bag {
	e.flatOnce.Do(func() {
		if len(e.chunks) == 1 {
			e.flat = e.chunks[0].Bag
			return
		}
		e.flat = make(Bag, 0, e.info.Rows)
		for _, c := range e.chunks {
			e.flat = append(e.flat, c.Bag...)
		}
	})
	return e.flat
}

// input returns the generation's bound input under variable v.
func (e *catalogEntry) input(v string) *runner.Input {
	e.mu.Lock()
	defer e.mu.Unlock()
	in, ok := e.inputs[v]
	if !ok {
		if e.inputs == nil {
			e.inputs = map[string]*runner.Input{}
		}
		in = runner.NewInput(v, e.info.Type, e.runnerChunks(), e.idx)
		e.inputs[v] = in
	}
	return in
}

// newGeneration builds the generation of a dataset that follows prev (nil at
// registration) over chunks cs — the one constructor of a catalogEntry. cs
// either is prev's list (add is the index CreateIndex built), extends it (an
// append), or replaces the chunks a delete removed rows from; compaction has
// already run. Statistics are merged from the chunks', and info's Rows, Bytes
// and Chunks come from them. The generation is stamped when Catalog.mutate
// installs the entry.
func newGeneration(info DatasetInfo, prev *catalogEntry, cs []*chunk, add *index.ColumnIndex) *catalogEntry {
	tabs := make([]*stats.Table, len(cs))
	for i, c := range cs {
		tabs[i] = c.stats
	}
	st := stats.Merge(tabs...)
	info.Rows, info.Bytes, info.Chunks = int(st.Rows), st.Bytes, len(cs)
	e := &catalogEntry{info: info, chunks: cs, stats: st}
	e.idx, e.auto = keepIndexes(prev, e, add)
	return e
}

// keepIndexes derives generation e's secondary indexes from prev's, each the
// concatenation of its chunks' parts: a chunk reused from prev brings its
// parts along, a new chunk builds its own. At registration it builds an
// index on every column the statistics flag as selective
// (stats.Table.SelectiveColumns), skipping build refusals (counted under
// Counters' index.refusal_reasons). An append maintains each of prev's indexes
// (index.maintained) and a delete rebuilds the parts of the chunks it changed
// (index.rebuilt), dropping a column that is no longer indexable (an
// appended NaN key, say); CreateIndex puts add beside the rest, no longer
// auto-built. Appends only maintain the indexes a dataset has: the auto-index
// policy runs at registration alone.
func keepIndexes(prev, e *catalogEntry, add *index.ColumnIndex) (*index.Set, map[string]bool) {
	set, chunks := index.NewSet(), e.runnerChunks()
	if prev == nil {
		var auto map[string]bool
		for _, col := range e.stats.SelectiveColumns() {
			if ci, err := runner.IndexChunks(chunks, col); err == nil {
				set.Put(ci)
				if auto == nil {
					auto = map[string]bool{}
				}
				auto[col] = true
			}
		}
		return set, auto
	}
	if add != nil {
		set = prev.idx.Clone()
		set.Put(add)
		if !prev.auto[add.Col] {
			return set, prev.auto
		}
		auto := make(map[string]bool, len(prev.auto))
		for k, v := range prev.auto {
			auto[k] = v
		}
		delete(auto, add.Col)
		return set, auto
	}
	appended := e.info.Rows > prev.info.Rows
	for _, col := range prev.idx.Names() {
		ci, err := runner.IndexChunks(chunks, col)
		if err != nil {
			continue
		}
		if appended {
			index.RecordMaintained()
		} else {
			index.RecordRebuild()
		}
		set.Put(ci)
	}
	return set, prev.auto
}

// mutate installs the generation next derives from the current entry of name
// (nil when none is registered) and returns the entry that is current after
// it — the one way a catalog changes. next runs outside the lock and may run
// more than once: its entry is installed only if the one it saw is still
// current, and a lost race reruns it over the winner's. Under the write lock
// run only that pointer compare, the generation stamp and the store. A nil
// entry from next changes nothing and installs nothing.
func (c *Catalog) mutate(name string, next func(cur *catalogEntry) (*catalogEntry, error)) (*catalogEntry, error) {
	for {
		cur, _ := c.entry(name)
		e, err := next(cur)
		if err != nil || e == nil {
			return cur, err
		}
		c.mu.Lock()
		if c.entries[name] == cur {
			c.nextGen++
			e.gen, e.stats.Generation, e.info.Generation = c.nextGen, c.nextGen, c.nextGen
			if cur == nil {
				c.order = append(c.order, name)
			}
			c.entries[name] = e
			c.mu.Unlock()
			return e, nil
		}
		c.mu.Unlock()
	}
}

// entry returns the current immutable entry of a dataset.
func (c *Catalog) entry(name string) (*catalogEntry, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[name]
	return e, ok
}

func notRegistered(name string) error {
	return fmt.Errorf("catalog: dataset %s is not registered", name)
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
	// Chunks is the number of immutable chunks the rows are held in: one at
	// registration, one more per append, and fewer as adjacent chunks merge
	// (each holds at least twice the rows of the chunk after it).
	Chunks int
	// Source records how the dataset was registered: "go" or "json".
	Source string
	// Generation is the dataset generation this info describes — the one its
	// statistics (Catalog.Stats) and indexes are stamped with.
	Generation int64
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
	e, err := c.mutate(name, func(cur *catalogEntry) (*catalogEntry, error) {
		if cur != nil {
			return nil, fmt.Errorf("catalog: dataset %s: %w", name, ErrDatasetExists)
		}
		ch, err := newChunk(b, t, 0)
		if err != nil {
			return nil, fmt.Errorf("catalog: dataset %s: %w", name, err)
		}
		return newGeneration(DatasetInfo{Name: name, Type: t, Source: source}, nil, []*chunk{ch}, nil), nil
	})
	if err != nil {
		return DatasetInfo{}, err
	}
	return e.info, nil
}

// IndexInfo describes one secondary index of a catalog dataset.
type IndexInfo struct {
	// Dataset and Column name the indexed data.
	Dataset string
	Column  string
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
		Dataset: dataset, Column: ci.Col,
		Keys: ci.Keys(), Nulls: ci.Nulls(), Rows: int64(ci.Len()),
		Generation: gen, Auto: auto,
	}
}

// CreateIndex builds a secondary index on a dataset column on demand. kind is
// accepted for compatibility only: every name index.ParseKind accepts builds
// the one sorted structure. The build runs outside the catalog lock;
// installing it bumps the dataset's generation so sessions re-plan with the
// index available.
func (c *Catalog) CreateIndex(dataset, column, kind string) (IndexInfo, error) {
	if err := index.ParseKind(kind); err != nil {
		return IndexInfo{}, fmt.Errorf("catalog: dataset %s: %w", dataset, err)
	}
	e, err := c.mutate(dataset, func(cur *catalogEntry) (*catalogEntry, error) {
		if cur == nil {
			return nil, notRegistered(dataset)
		}
		ci, err := runner.IndexChunks(cur.runnerChunks(), column)
		if err != nil {
			return nil, fmt.Errorf("catalog: dataset %s: %w", dataset, err)
		}
		return newGeneration(cur.info, cur, cur.chunks, ci), nil
	})
	if err != nil {
		return IndexInfo{}, err
	}
	return indexInfoOf(dataset, e.idx.Column(column), e.gen, false), nil
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

// Append adds rows to a registered dataset as one new chunk. The rows are
// validated against the dataset's element type up front; statistics are
// collected over the appended rows and merged with the unchanged chunks', and
// every secondary index gains a part over them (Counters' index.maintained),
// so an append costs what it adds, plus any chunk merge the compaction rule
// asks for. The new entry
// carries a fresh generation, so a session's next Run re-resolves data,
// statistics, and plans — an append is never served from stale rows or a
// stale plan — while queries already executing keep their snapshot.
func (c *Catalog) Append(name string, rows Bag) (DatasetInfo, error) {
	e, err := c.mutate(name, func(cur *catalogEntry) (*catalogEntry, error) {
		if cur == nil {
			return nil, notRegistered(name)
		}
		if len(rows) == 0 {
			return nil, nil
		}
		if err := conforms(rows, cur.info.Type); err != nil {
			return nil, fmt.Errorf("catalog: dataset %s: append: %w", name, err)
		}
		bt := cur.info.Type.(nrc.BagType)
		ch, err := newChunk(slices.Clone(rows), bt, len(cur.chunks))
		if err != nil {
			return nil, fmt.Errorf("catalog: dataset %s: append: %w", name, err)
		}
		cs, err := compact(append(slices.Clone(cur.chunks), ch), bt)
		if err != nil {
			return nil, fmt.Errorf("catalog: dataset %s: append: %w", name, err)
		}
		return newGeneration(cur.info, cur, cs, nil), nil
	})
	if err != nil {
		return DatasetInfo{}, err
	}
	return e.info, nil
}

// AppendJSON is Append over a JSON body — NDJSON or a single JSON array, as
// RegisterJSON reads — converted against the dataset's registered element
// type. It returns the updated info and how many rows the body held.
func (c *Catalog) AppendJSON(name string, r io.Reader) (DatasetInfo, int, error) {
	e, ok := c.entry(name)
	if !ok {
		return DatasetInfo{}, 0, notRegistered(name)
	}
	rows, err := ingest.ReadJSONAs(r, e.info.Type.(nrc.BagType).Elem)
	if err != nil {
		return DatasetInfo{}, 0, fmt.Errorf("catalog: dataset %s: append: %w", name, err)
	}
	info, err := c.Append(name, rows)
	return info, len(rows), err
}

// Delete removes every row whose column equals v (the engine's value.Compare
// equality, so 5 matches 5.0; a NULL column value matches nothing) and
// returns the number removed. A chunk that lost rows is replaced by a chunk
// of its survivors (or dropped when none survive), whose statistics and index
// parts are derived afresh (Counters' index.rebuilt); every other chunk is
// reused as it is. The generation bump invalidates prepared routes exactly
// like Append.
func (c *Catalog) Delete(name, column string, v Value) (int, error) {
	if v == nil {
		return 0, errNullKey(name)
	}
	return c.delete(name, column, func(nrc.ScalarType) (Value, error) { return v, nil })
}

// DeleteJSON is Delete with the key given as a JSON scalar literal (the form
// an HTTP parameter arrives in), parsed against the column's registered type;
// unquoted text is accepted for string and date columns.
func (c *Catalog) DeleteJSON(name, column, raw string) (int, error) {
	return c.delete(name, column, func(st nrc.ScalarType) (Value, error) { return ingest.ScalarFromJSON(raw, st) })
}

func errNullKey(name string) error {
	return fmt.Errorf("catalog: dataset %s: delete key must not be NULL", name)
}

// delete removes the rows whose column equals the key that key derives from
// the column's type in the generation it deletes from.
func (c *Catalog) delete(name, column string, key func(nrc.ScalarType) (Value, error)) (int, error) {
	removed := 0
	_, err := c.mutate(name, func(cur *catalogEntry) (*catalogEntry, error) {
		if cur == nil {
			return nil, notRegistered(name)
		}
		off, st, ok := runner.ScalarColumn(cur.info.Type.(nrc.BagType), column)
		if !ok {
			return nil, fmt.Errorf("catalog: dataset %s: delete: no top-level scalar column %q", name, column)
		}
		v, err := key(st)
		if err != nil {
			return nil, fmt.Errorf("catalog: dataset %s: delete: %w", name, err)
		}
		if v == nil {
			return nil, errNullKey(name)
		}
		bt := cur.info.Type.(nrc.BagType)
		gone := func(el Value) bool {
			if t, ok := el.(value.Tuple); ok {
				el = t[off]
			}
			return el != nil && value.Compare(el, v) == 0
		}
		removed = 0
		cs := make([]*chunk, 0, len(cur.chunks))
		for _, c := range cur.chunks {
			first := slices.IndexFunc(c.Bag, gone)
			if first < 0 {
				cs = append(cs, c)
				continue
			}
			kept := append(make(Bag, 0, len(c.Bag)-1), c.Bag[:first]...)
			for _, el := range c.Bag[first+1:] {
				if !gone(el) {
					kept = append(kept, el)
				}
			}
			removed += len(c.Bag) - len(kept)
			if len(kept) > 0 {
				ch, err := newChunk(kept, bt, len(cs))
				if err != nil {
					return nil, fmt.Errorf("catalog: dataset %s: delete: %w", name, err)
				}
				cs = append(cs, ch)
			}
		}
		if removed == 0 {
			return nil, nil
		}
		if len(cs) == 0 {
			ch, _ := newChunk(Bag{}, bt, 0) // position 0 draws no label range
			cs = append(cs, ch)
		}
		cs, err = compact(cs, bt)
		if err != nil {
			return nil, fmt.Errorf("catalog: dataset %s: delete: %w", name, err)
		}
		return newGeneration(cur.info, cur, cs, nil), nil
	})
	if err != nil {
		return 0, err
	}
	return removed, nil
}

// Stats returns a dataset's collected statistics (row/byte counts, per-column
// NDV, min/max, heavy-key histograms), stamped with the registration
// generation they describe. The table is shared — treat it as read-only.
func (c *Catalog) Stats(name string) (*DatasetStats, bool) {
	e, ok := c.entry(name)
	if !ok {
		return nil, false
	}
	return e.stats, true
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
	e, ok := c.entry(name)
	if !ok {
		return DatasetInfo{}, false
	}
	return e.info, true
}

// Data returns a dataset's values and type. The bag is shared, not copied —
// treat it as read-only.
func (c *Catalog) Data(name string) (Bag, Type, bool) {
	e, ok := c.entry(name)
	if !ok {
		return nil, nil, false
	}
	return e.bag(), e.info.Type, true
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

// boundLocked returns the dataset name variable v resolves to under the
// session's bindings and its current entry (nil when none is registered).
// Caller holds c.mu.
func (c *Catalog) boundLocked(v string, bindings map[string]string) (string, *catalogEntry) {
	ds := v
	if b, ok := bindings[v]; ok {
		ds = b
	}
	return ds, c.entries[ds]
}

// resolve snapshots the entries (dataset generations) the variable names
// resolve to under the session's bindings, and their table statistics.
// Statistics of indexed columns carry the index flags the planner's
// Select→IndexScan conversion keys on, and every estimate is published under
// the shredded top-component name too — value shredding preserves top-level
// row order and scalar column positions, so the same indexes serve both
// routes (runner.Inputs.Bind), and a shredded plan's join to a small input
// is costed as the standard plan's is.
func (c *Catalog) resolve(vars []string, bindings map[string]string) (map[string]*catalogEntry, map[string]plan.TableEstimate, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	entries := map[string]*catalogEntry{}
	ests := map[string]plan.TableEstimate{}
	for _, v := range vars {
		ds, e := c.boundLocked(v, bindings)
		if e == nil {
			return nil, nil, &UnknownDatasetError{Var: v, Dataset: ds, Have: append([]string(nil), c.order...)}
		}
		entries[v] = e
		te := e.stats.Estimate()
		for _, col := range e.idx.Names() {
			ce := te.Cols[col]
			ce.Indexed = true
			te.Cols[col] = ce
		}
		ests[shred.MatName(v, nil)] = te
		ests[v] = te
	}
	return entries, ests, nil
}

// generationsUnchanged reports whether every dataset the variables resolve to
// still carries the given generation — the sessions' cheap staleness probe
// (one read-locked map walk per Run).
func (c *Catalog) generationsUnchanged(vars []string, bindings map[string]string, gens map[string]int64) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, v := range vars {
		if _, e := c.boundLocked(v, bindings); e == nil || e.gen != gens[v] {
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
