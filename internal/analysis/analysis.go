// Package analysis is flexvet's engine: a stdlib-only (go/ast, go/parser,
// go/types) vet-style framework plus five FLEX-specific analyzers —
// walltime, maporder, streamdiscipline, errclose and metricname — that
// machine-enforce the repository's determinism, output-discipline,
// close-error and metric-naming invariants. Every rule the analyzers
// encode used to be a review comment; see docs/ANALYSIS.md for what each
// analyzer enforces and how to add one.
//
// Intentional exceptions are written in the source as justification
// comments of the form
//
//	//flexvet:<token> <reason>
//
// attached to the flagged line (same line, the line above, or the doc
// comment of the enclosing function declaration to cover every site in
// that function). The framework verifies the grammar of every such
// comment, and each analyzer reports justifications that do not attach to
// anything it would have flagged — a stale exception is itself a
// diagnostic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named, independently switchable check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and CLI flags.
	Name string
	// Doc is the one-line description shown in flag help.
	Doc string
	// JustifyToken is the //flexvet:<token> that suppresses this
	// analyzer's diagnostics at a justified site ("" = not suppressible).
	JustifyToken string
	// Run inspects one package and reports through the pass.
	Run func(*Pass)
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	File     string         `json:"file"`
	Line     int            `json:"line"`
	Col      int            `json:"col"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags *[]Diagnostic
	justs []*justification
}

// Package is one loaded, type-checked package.
type Package struct {
	// ImportPath is the package's import path (analyzers scoped to
	// cmd/* key off it).
	ImportPath string
	// Fset positions every file in the package.
	Fset *token.FileSet
	// Files are the parsed non-test sources, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries identifier uses and expression types.
	Info *types.Info
}

// justification is one //flexvet:<token> comment and its use state.
type justification struct {
	token  string
	reason string
	file   *ast.File
	pos    token.Position
	used   bool
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      position,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Justified reports whether node carries this analyzer's justification
// token: on the node's line, on the line above it, or on the enclosing
// function declaration (its doc comment or the line above `func`). A
// match marks the justification used.
func (p *Pass) Justified(node ast.Node) bool {
	if p.Analyzer.JustifyToken == "" {
		return false
	}
	pos := p.Pkg.Fset.Position(node.Pos())
	covered := map[int]bool{pos.Line: true, pos.Line - 1: true}
	if fd := p.enclosingFuncDecl(node.Pos()); fd != nil {
		funcLine := p.Pkg.Fset.Position(fd.Pos()).Line
		covered[funcLine-1] = true
		if fd.Doc != nil {
			for l := p.Pkg.Fset.Position(fd.Doc.Pos()).Line; l < funcLine; l++ {
				covered[l] = true
			}
		}
	}
	ok := false
	for _, j := range p.justs {
		if j.token == p.Analyzer.JustifyToken && j.pos.Filename == pos.Filename && covered[j.pos.Line] {
			j.used = true
			ok = true
		}
	}
	return ok
}

// enclosingFuncDecl finds the function declaration whose body spans pos
// (nil for package-level positions).
func (p *Pass) enclosingFuncDecl(pos token.Pos) *ast.FuncDecl {
	for _, f := range p.Pkg.Files {
		if pos < f.Pos() || pos > f.End() {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
				return fd
			}
		}
	}
	return nil
}

// RunAnalyzers runs every analyzer over pkg and returns the diagnostics,
// including one per justification comment that no enabled analyzer
// consumed — stale exceptions must be deleted, not accumulated.
func RunAnalyzers(analyzers []*Analyzer, pkg *Package) []Diagnostic {
	var diags []Diagnostic
	justs := collectJustifications(pkg)
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, diags: &diags, justs: justs}
		a.Run(pass)
		for _, j := range justs {
			if j.token == a.JustifyToken && !j.used {
				diags = append(diags, Diagnostic{
					Analyzer: a.Name,
					Pos:      j.pos,
					File:     j.pos.Filename,
					Line:     j.pos.Line,
					Col:      j.pos.Column,
					Message: fmt.Sprintf("unused //flexvet:%s justification: nothing here needs it",
						j.token),
				})
			}
		}
	}
	diags = append(diags, CheckComments(pkg)...)
	sortDiagnostics(diags)
	return diags
}

// CheckComments validates the grammar of every //flexvet: comment in pkg:
// the token must belong to a registered analyzer (the full registry, so
// disabling an analyzer never turns its justifications into typos) and
// the reason must be non-empty. Violations are reported under the
// pseudo-analyzer "flexvet" so a typoed token can never silently grant an
// exception.
func CheckComments(pkg *Package) []Diagnostic {
	known := map[string]bool{}
	var tokens []string
	for _, a := range All() {
		if a.JustifyToken != "" {
			known[a.JustifyToken] = true
			tokens = append(tokens, a.JustifyToken)
		}
	}
	sort.Strings(tokens)
	var diags []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: "flexvet", Pos: pos, File: pos.Filename, Line: pos.Line, Col: pos.Column,
			Message: fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//flexvet:")
				if !ok {
					continue
				}
				tok, reason, _ := strings.Cut(rest, " ")
				pos := pkg.Fset.Position(c.Pos())
				switch {
				case !known[tok]:
					report(pos, "unknown flexvet justification token %q (want one of: %s)",
						tok, strings.Join(tokens, ", "))
				case strings.TrimSpace(reason) == "":
					report(pos, "//flexvet:%s needs a reason: //flexvet:%s <why this site is exempt>",
						tok, tok)
				}
			}
		}
	}
	return diags
}

// collectJustifications indexes every well-formed //flexvet:<token> <reason>
// comment in the package.
func collectJustifications(pkg *Package) []*justification {
	var out []*justification
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//flexvet:")
				if !ok {
					continue
				}
				tok, reason, _ := strings.Cut(rest, " ")
				if tok == "" || strings.TrimSpace(reason) == "" {
					continue // CheckComments reports the grammar error
				}
				out = append(out, &justification{
					token: tok, reason: strings.TrimSpace(reason),
					file: f, pos: pkg.Fset.Position(c.Pos()),
				})
			}
		}
	}
	return out
}

// sortDiagnostics orders by file, line, column, analyzer for stable output.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// isPkgCall reports whether call invokes pkgPath.name (e.g. "time".Now),
// resolving the qualifier through the type info so import renames cannot
// fool it.
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return false
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return true
		}
	}
	return false
}

// isPkgSelector reports whether expr is the selector pkgPath.name (e.g.
// "os".Stdout) resolved through the type info.
func isPkgSelector(info *types.Info, expr ast.Expr, pkgPath, name string) bool {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == pkgPath
}

// inCmd reports whether the package is a command (cmd/* in this module) —
// several analyzers only police command main paths.
func inCmd(pkg *Package) bool {
	return strings.Contains(pkg.ImportPath, "/cmd/") || strings.HasPrefix(pkg.ImportPath, "cmd/")
}

// inFleet matches the fleet transport package (internal/fleet): its HTTP
// client and handlers close response bodies and request streams, the same
// dropped-error class errclose polices on the cmd mains.
func inFleet(pkg *Package) bool {
	return strings.HasSuffix(pkg.ImportPath, "internal/fleet") ||
		strings.Contains(pkg.ImportPath, "internal/fleet/")
}

// inObs matches the observability package (internal/obs): the sanctioned
// wall-clock sink, exempt from the walltime analyzer wholesale.
func inObs(pkg *Package) bool {
	return strings.HasSuffix(pkg.ImportPath, "internal/obs") ||
		strings.Contains(pkg.ImportPath, "internal/obs/")
}
