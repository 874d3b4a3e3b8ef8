// Package analysis is MANETKit's compile-time invariant checker: a small,
// dependency-free analogue of golang.org/x/tools/go/analysis that encodes
// the framework's runtime integrity rules as static analyzers.
//
// The paper's Framework Manager polices composition at runtime (integrity
// rules, quiescent reconfiguration); this package moves the hottest of those
// rules into the build, the way RFC 5444 structural constraints are already
// checked in internal/packetbb. Each analyzer rejects a class of bug the
// runtime test suite can only catch after the fact:
//
//   - determinism: wall-clock and global-randomness calls outside the
//     vclock facade (they break golden traces and chaos fingerprints);
//   - lockemit: emitting or reconfiguring while holding a framework lock
//     (the deadlock/stall class the RCU dispatch plan exists to avoid);
//   - hotalloc: allocation sites inside //mk:hotpath functions (the static
//     complement of the det(0) runtime alloc gate);
//   - ctxleak: pooled handler Contexts escaping the delivery that owns them;
//   - atomicstats: mixed atomic/plain access to the same struct field;
//   - blockingpub: blocking operations reachable from the telemetry
//     publish/fan-out path (//mk:nonblocking — the backpressure contract);
//   - maporder: map iteration order reaching deterministic outputs
//     (telemetry events, trace spans, NDJSON, fingerprints) unsorted.
//
// The suite is interprocedural: factbuild.go computes per-function summaries
// ("may emit", "may allocate", "may block", "may sink into ordered output",
// "returns map-order-tainted data"), closes them over the package call graph,
// and mkvet serializes them through the vet.cfg VetxOutput/PackageVetx
// plumbing so lockemit, hotalloc and the reachability analyzers see through
// helpers in other packages and report the offending call chain.
//
// Analyzers run over standard go/ast + go/types input, so they work both
// under `go vet -vettool=mkvet` (export-data type checking, see cmd/mkvet)
// and in analysistest-style fixture tests (source type checking).
//
// Findings are suppressed with an in-source directive:
//
//	//mk:allow <analyzer>[,<analyzer>...] <reason>
//
// placed on the offending line, on the line above it, or in the enclosing
// function's doc comment. A reason is required: a bare //mk:allow is itself
// reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //mk:allow directives.
	Name string
	// Doc is a one-paragraph description: the rule and the failure class it
	// prevents.
	Doc string
	// Run reports violations through pass.Reportf.
	Run func(pass *Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one package's worth of typed syntax through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// Facts is the interprocedural view: per-function summaries for this
	// package (closed over its call graph) plus summaries imported from
	// dependency fact files. See factbuild.go.
	Facts *Facts

	directives *directiveIndex
	report     func(Diagnostic)
}

// Reportf records a finding at pos unless an //mk:allow directive for this
// analyzer covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.directives.allows(p.Analyzer.Name, position) {
		return
	}
	p.report(Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e (nil when untypeable).
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Run executes the analyzers over one typed package and returns the surviving
// diagnostics sorted by position. Directive scanning (//mk:allow, //mk:hotpath)
// is shared across analyzers. No imported facts: transitive analysis covers
// the package's own call graph only.
func Run(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	diags, _, err := RunWithFacts(fset, files, pkg, info, analyzers, nil)
	return diags, err
}

// RunWithFacts is Run seeded with dependency summaries (from mkvet's
// PackageVetx fact files, or sibling fixtures in analysistest). It also
// returns the cumulative fact set to serialize for importing packages.
// Diagnostics come back sorted by position and deduplicated, so the output
// order is stable for the vet cache and for golden assertions.
func RunWithFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer, imported *FactSet) ([]Diagnostic, *FactSet, error) {
	idx := indexDirectives(fset, files)
	facts := buildFacts(fset, files, pkg, info, idx, imported)
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:   a,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			Info:       info,
			Facts:      facts,
			directives: idx,
			report:     func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	diags = append(diags, idx.malformed...)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	// Dedup: two analyzers (or one analyzer via two paths) reporting the
	// same finding at the same position collapse to one line.
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d == diags[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out, facts.Exported(), nil
}

// ComputeFacts builds and returns the cumulative fact set for one package
// without running any analyzer — the fixture importer uses it to mimic
// mkvet's cross-package fact flow inside analysistest.
func ComputeFacts(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, imported *FactSet) *FactSet {
	idx := indexDirectives(fset, files)
	return buildFacts(fset, files, pkg, info, idx, imported).Exported()
}

// NewInfo returns a types.Info populated with every map the analyzers need.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

// --- directives -------------------------------------------------------------

const (
	allowPrefix   = "mk:allow"
	hotpathMarker = "mk:hotpath"
	// nonblockingMarker names a publish/fan-out entry point that must never
	// block; blockingpub checks everything reachable from it.
	nonblockingMarker = "mk:nonblocking"
)

// directiveIndex maps (file, line) to the analyzer names allowed there, plus
// the span of each function whose doc comment carries a directive.
type directiveIndex struct {
	fset *token.FileSet
	// allowed[file][line] lists analyzer names suppressed on that line.
	allowed map[string]map[int][]string
	// funcAllows extends a doc-comment directive to the whole declaration.
	funcAllows []spanAllow
	malformed  []Diagnostic
}

type spanAllow struct {
	file       string
	start, end int // line range, inclusive
	names      []string
}

func (ix *directiveIndex) allows(analyzer string, pos token.Position) bool {
	lines := ix.allowed[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == analyzer {
				return true
			}
		}
	}
	for _, fa := range ix.funcAllows {
		if fa.file != pos.Filename || pos.Line < fa.start || pos.Line > fa.end {
			continue
		}
		for _, name := range fa.names {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// parseAllow splits "//mk:allow a,b reason" into analyzer names and reason.
func parseAllow(text string) (names []string, reason string, ok bool) {
	rest := strings.TrimPrefix(text, allowPrefix)
	if rest == text {
		return nil, "", false
	}
	rest = strings.TrimSpace(rest)
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return nil, "", true // malformed: no analyzer name
	}
	for _, n := range strings.Split(fields[0], ",") {
		if n != "" {
			names = append(names, n)
		}
	}
	return names, strings.TrimSpace(strings.Join(fields[1:], " ")), true
}

func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	ix := &directiveIndex{fset: fset, allowed: map[string]map[int][]string{}}
	for _, f := range files {
		fileName := fset.Position(f.Pos()).Filename
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				names, reason, ok := parseAllow(text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if len(names) == 0 || reason == "" {
					ix.malformed = append(ix.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "mkdirective",
						Message:  "malformed //mk:allow: need analyzer name(s) and a justification, e.g. //mk:allow determinism wall-clock benchmark",
					})
					continue
				}
				if ix.allowed[fileName] == nil {
					ix.allowed[fileName] = map[int][]string{}
				}
				ix.allowed[fileName][pos.Line] = append(ix.allowed[fileName][pos.Line], names...)
			}
		}
		// Doc-comment directives cover the whole declaration.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Doc != nil && docHasDirective(fd.Doc, allowPrefix) {
				names := docAllowNames(fd.Doc)
				if len(names) > 0 {
					ix.funcAllows = append(ix.funcAllows, spanAllow{
						file:  fileName,
						start: fset.Position(fd.Pos()).Line,
						end:   fset.Position(fd.End()).Line,
						names: names,
					})
				}
			}
		}
	}
	return ix
}

func docHasDirective(doc *ast.CommentGroup, prefix string) bool {
	for _, c := range doc.List {
		if strings.HasPrefix(strings.TrimPrefix(c.Text, "//"), prefix) {
			return true
		}
	}
	return false
}

func docAllowNames(doc *ast.CommentGroup) []string {
	var names []string
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		if ns, reason, ok := parseAllow(text); ok && reason != "" {
			names = append(names, ns...)
		}
	}
	return names
}

// isHotpath reports whether fn's doc comment carries //mk:hotpath.
func isHotpath(fn *ast.FuncDecl) bool {
	return fn.Doc != nil && docHasDirective(fn.Doc, hotpathMarker)
}

// isNonblocking reports whether fn's doc comment carries //mk:nonblocking.
func isNonblocking(fn *ast.FuncDecl) bool {
	return fn.Doc != nil && docHasDirective(fn.Doc, nonblockingMarker)
}

// --- shared type helpers ----------------------------------------------------

// pkgIs reports whether pkg is the named MANETKit package: an exact path
// match, a "/<base>"-suffixed match (manetkit/internal/core), or the bare
// base name (analysistest fixtures use single-segment import paths).
func pkgIs(pkg *types.Package, base string) bool {
	if pkg == nil {
		return false
	}
	path := pkg.Path()
	return path == base || strings.HasSuffix(path, "/"+base)
}

// namedIn returns the *types.Named behind t (through pointers and aliases)
// when it is declared in a package matching base with the given type name.
func namedIn(t types.Type, base, name string) bool {
	n := namedOf(t)
	return n != nil && n.Obj().Name() == name && pkgIs(n.Obj().Pkg(), base)
}

// namedOf unwraps pointers and aliases down to a named type.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Alias:
			t = types.Unalias(tt)
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// funcOf resolves a call's static callee (nil for calls through function
// values and interfaces... which still resolve for interface methods).
func funcOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// recvNamed returns the named receiver type of fn (nil for plain functions).
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// isTestFile reports whether pos lies in a _test.go file.
func isTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}
