package analysis

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// FactsHeader is the first line of a serialized fact file. cmd/go treats the
// VetxOutput file as an opaque blob keyed by the tool fingerprint, so bumping
// this version string is enough to invalidate stale fact files from older
// mkvet builds (decoding tolerates unknown versions by returning an empty
// set — analysis then degrades to intra-procedural, never to a crash).
const FactsHeader = "mkvet-facts-v2"

// FuncFact is one function's interprocedural summary: for each invariant
// class, the call path from this function down to the primitive operation
// that establishes the fact (empty = the function is clean for that class).
// Paths are display strings — "emunet.grow" or "make(map) in olsr.rebuild" —
// ordered from the first callee to the primitive, so a diagnostic at a call
// site can print the whole offending chain without re-walking other packages.
type FuncFact struct {
	// Emit: the function may (transitively) call an Emit/reconfigure entry
	// point (the lockemit banned surface).
	Emit []string `json:"emit,omitempty"`
	// Alloc: the function may (transitively) execute allocating syntax
	// (the hotalloc primitive set).
	Alloc []string `json:"alloc,omitempty"`
	// Block: the function may (transitively) block — channel operations
	// outside select-with-default, non-telemetry lock acquisition, I/O.
	Block []string `json:"block,omitempty"`
	// Sink: the function may (transitively) feed data into an
	// order-sensitive deterministic output (telemetry publish, trace
	// record, NDJSON/hash/writer encoders).
	Sink []string `json:"sink,omitempty"`
	// MapOrdered: the function returns data whose order derives from an
	// unsorted map iteration.
	MapOrdered bool `json:"map_ordered,omitempty"`
}

func (f FuncFact) empty() bool {
	return f.Emit == nil && f.Alloc == nil && f.Block == nil &&
		f.Sink == nil && !f.MapOrdered
}

// FactSet maps a function's full name (types.Func.FullName, e.g.
// "manetkit/internal/emunet.prep" or "(*manetkit/internal/core.Manager).Deploy")
// to its summary. A set serialized by one package is cumulative: it carries
// the package's own functions plus every fact imported from its
// dependencies, so a consumer only ever needs the fact files of its direct
// imports even when cmd/go withholds transitive ones.
type FactSet struct {
	Funcs map[string]FuncFact `json:"funcs"`
}

// NewFactSet returns an empty set.
func NewFactSet() *FactSet { return &FactSet{Funcs: map[string]FuncFact{}} }

// Lookup returns the summary for a full function name.
func (s *FactSet) Lookup(name string) (FuncFact, bool) {
	if s == nil || s.Funcs == nil {
		return FuncFact{}, false
	}
	f, ok := s.Funcs[name]
	return f, ok
}

// Merge folds other into s (other wins on collision; collisions only happen
// when two packages serialized the same dependency fact, which is identical
// by construction).
func (s *FactSet) Merge(other *FactSet) {
	if other == nil {
		return
	}
	for name, f := range other.Funcs {
		s.Funcs[name] = f
	}
}

// Len reports how many functions carry at least one fact.
func (s *FactSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Funcs)
}

// EncodeFacts writes the set in the stable mkvet fact format: a version
// header line followed by canonical JSON (encoding/json emits map keys in
// sorted order, so equal sets serialize byte-identically — the property the
// vet cache and the round-trip tests rely on).
func EncodeFacts(w io.Writer, s *FactSet) error {
	if _, err := fmt.Fprintln(w, FactsHeader); err != nil {
		return err
	}
	if s == nil {
		s = NewFactSet()
	}
	data, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// DecodeFacts parses a fact file. Unknown or legacy headers (including the
// v1 stub files older mkvet builds wrote) yield an empty set, not an error:
// a missing summary only costs transitive precision.
func DecodeFacts(r io.Reader) (*FactSet, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		if err == io.EOF {
			return NewFactSet(), nil
		}
		return nil, err
	}
	if strings.TrimSpace(header) != FactsHeader {
		return NewFactSet(), nil
	}
	body, err := io.ReadAll(br)
	if err != nil {
		return nil, err
	}
	s := NewFactSet()
	if len(body) == 0 {
		return s, nil
	}
	if err := json.Unmarshal(body, s); err != nil {
		return nil, fmt.Errorf("facts body: %w", err)
	}
	if s.Funcs == nil {
		s.Funcs = map[string]FuncFact{}
	}
	return s, nil
}

// Names returns the fact keys in sorted order (test helper).
func (s *FactSet) Names() []string {
	if s == nil {
		return nil
	}
	names := make([]string, 0, len(s.Funcs))
	for n := range s.Funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
