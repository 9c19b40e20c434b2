// Command doccheck is the documentation gate CI runs next to go vet and
// gofmt: it fails when the public API or a package is missing godoc, or
// when the prose documentation drifts from the tree it describes.
//
// Usage:
//
//	doccheck [-root .]
//
// Five rules:
//
//  1. Every package in the module (the public flex root, internal/*, cmd/*,
//     examples/*) must carry a package doc comment ("// Package ..." or a
//     command comment on package main), so `go doc` output is
//     self-explanatory. Non-test files only.
//  2. Every exported top-level identifier in the public flex package — types,
//     functions, methods, and each exported const/var (its declaration group
//     counts) — must have a doc comment.
//  3. Every file or directory referenced from README.md or docs/*.md must
//     exist: markdown link targets (relative, non-URL, fragment stripped)
//     resolve against the document's directory; inline-code path tokens —
//     space-free, starting with internal/, cmd/, docs/ or examples/, or
//     ending in .go or .md — resolve against the repo root (or the
//     document's directory). Globs and placeholders are skipped.
//  4. The package map table in docs/ARCHITECTURE.md and the tree must agree
//     both ways: every `internal/...` or `cmd/...` token in the table's
//     first column is a real directory, and every internal/* package in the
//     tree has a row naming it.
//  5. Every name README.md or docs/*.md uses from the public flex package
//     must exist in it: `flex.X` anywhere (code blocks included) must be an
//     exported top-level identifier, a bare WithX in inline code must be a
//     top-level function, and `T.M` (or `flex.T.M`), where T is a struct
//     type declared in the root package, must name one of T's fields or
//     methods. Alias types (re-exported internal types), non-struct types
//     and names qualified by another package are skipped.
//
// Violations print one "path: problem" line each and the exit status is
// non-zero, so the CI log names exactly what to fix.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := flag.String("root", ".", "module root to check")
	flag.Parse()

	problems, err := check(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "doccheck: ok")
}

// check runs every rule over the module at root and returns the problem
// lines, sorted.
func check(root string) ([]string, error) {
	pkgs, err := parseAll(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	var public api
	for _, p := range pkgs {
		if !p.hasPackageDoc {
			problems = append(problems, fmt.Sprintf("%s: package %s has no package doc comment", p.dir, p.name))
		}
		if p.dir == "." { // the public flex package
			problems = append(problems, checkExported(p)...)
			public = indexAPI(p)
		}
	}
	docProblems, err := checkDocs(root)
	if err != nil {
		return nil, err
	}
	mapProblems, err := checkPackageMap(root)
	if err != nil {
		return nil, err
	}
	nameProblems, err := checkDocNames(root, public)
	if err != nil {
		return nil, err
	}
	problems = append(problems, docProblems...)
	problems = append(problems, mapProblems...)
	problems = append(problems, nameProblems...)
	sort.Strings(problems)
	return problems, nil
}

// pkg is one parsed directory.
type pkg struct {
	dir           string
	name          string
	files         map[string]*ast.File // path -> file
	hasPackageDoc bool
}

// parseAll walks the module and parses every non-test Go file, grouped by
// directory.
func parseAll(root string) ([]*pkg, error) {
	byDir := map[string]*pkg{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if name == ".git" || name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		p := byDir[dir]
		if p == nil {
			p = &pkg{dir: dir, name: f.Name.Name, files: map[string]*ast.File{}}
			byDir[dir] = p
		}
		p.files[path] = f
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			p.hasPackageDoc = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]*pkg, 0, len(byDir))
	for _, p := range byDir {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].dir < out[j].dir })
	return out, nil
}

// checkExported reports every exported top-level identifier of the package
// that lacks a doc comment.
func checkExported(p *pkg) []string {
	var problems []string
	report := func(path, what string) {
		problems = append(problems, fmt.Sprintf("%s: %s is undocumented", path, what))
	}
	//flexvet:sorted problem lines are sorted by the caller before printing, so file order cannot leak
	for path, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if recv := receiverType(d); recv != "" && !ast.IsExported(recv) {
					continue // method on an unexported type
				}
				if d.Doc == nil {
					report(path, funcName(d))
				}
			case *ast.GenDecl:
				groupDoc := d.Doc != nil
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && !groupDoc && s.Doc == nil {
							report(path, "type "+s.Name.Name)
						}
					case *ast.ValueSpec:
						// A doc on the const/var group documents its members;
						// otherwise each exported spec needs its own.
						if groupDoc || s.Doc != nil {
							continue
						}
						for _, n := range s.Names {
							if n.IsExported() {
								report(path, "const/var "+n.Name)
							}
						}
					}
				}
			}
		}
	}
	return problems
}

// receiverType names a method's receiver type ("" for plain functions).
func receiverType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// funcName renders "func Name" or "method (T) Name" for a report line.
func funcName(d *ast.FuncDecl) string {
	if r := receiverType(d); r != "" {
		return fmt.Sprintf("method (%s) %s", r, d.Name.Name)
	}
	return "func " + d.Name.Name
}

var (
	mdLink     = regexp.MustCompile(`\[[^\]]*\]\(([^)\s]+)\)`)
	inlineCode = regexp.MustCompile("`([^`\n]+)`")
	pathPrefix = regexp.MustCompile(`^(internal|cmd|docs|examples)/`)
)

// docFiles lists the prose documents rule 3 scans: README.md plus docs/*.md.
func docFiles(root string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return nil, err
	}
	if readme := filepath.Join(root, "README.md"); exists(readme) {
		files = append(files, readme)
	}
	sort.Strings(files)
	return files, nil
}

// checkDocs verifies that every file or directory referenced from the prose
// documentation exists, so the docs cannot silently drift from the tree.
func checkDocs(root string) ([]string, error) {
	files, err := docFiles(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, path)
		text := stripFenced(string(b))
		dir := filepath.Dir(path)
		for _, m := range mdLink.FindAllStringSubmatch(text, -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") || strings.HasPrefix(target, "mailto:") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" || !exists(filepath.Join(dir, target)) {
				problems = append(problems, fmt.Sprintf("%s: link target %q does not exist", rel, m[1]))
			}
		}
		for _, m := range inlineCode.FindAllStringSubmatch(text, -1) {
			tok := strings.TrimRight(m[1], ".,:;")
			if strings.ContainsAny(tok, " *|…") {
				continue // not a single path, or a glob/placeholder
			}
			if !pathPrefix.MatchString(tok) && !strings.HasSuffix(tok, ".go") && !strings.HasSuffix(tok, ".md") {
				continue
			}
			if !exists(filepath.Join(root, tok)) && !exists(filepath.Join(dir, tok)) {
				problems = append(problems, fmt.Sprintf("%s: referenced path `%s` does not exist", rel, tok))
			}
		}
	}
	return problems, nil
}

// checkPackageMap verifies docs/ARCHITECTURE.md's package-map table against
// the tree, both ways: every internal/cmd token in the table's first column
// is a real directory, and every internal/* package has a row.
func checkPackageMap(root string) ([]string, error) {
	path := filepath.Join(root, "docs", "ARCHITECTURE.md")
	b, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return []string{"docs/ARCHITECTURE.md: missing (the package map lives here)"}, nil
		}
		return nil, err
	}
	mapped := map[string]bool{}
	var problems []string
	inMap := false
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "#") {
			inMap = strings.Contains(line, "Package map")
			continue
		}
		if !inMap || !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.SplitN(line, "|", 3)
		if len(cells) < 3 {
			continue
		}
		for _, m := range inlineCode.FindAllStringSubmatch(cells[1], -1) {
			tok := m[1]
			if !strings.Contains(tok, "/") {
				continue // `flex` (root)
			}
			mapped[tok] = true
			if !exists(filepath.Join(root, tok)) {
				problems = append(problems, fmt.Sprintf("docs/ARCHITECTURE.md: package map names `%s`, which is not a directory", tok))
			}
		}
	}
	dirs, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		if name := "internal/" + d.Name(); !mapped[name] {
			problems = append(problems, fmt.Sprintf("docs/ARCHITECTURE.md: package map has no row for `%s`", name))
		}
	}
	return problems, nil
}

// api indexes the public package for rule 5.
type api struct {
	names   map[string]bool // top-level identifiers, and "T.M" for each field and method
	structs map[string]bool // struct types declared (not aliased) in the package
}

// indexAPI builds the public package's index.
func indexAPI(p *pkg) api {
	a := api{names: map[string]bool{}, structs: map[string]bool{}}
	for _, f := range p.files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if recv := receiverType(d); recv != "" {
					name = recv + "." + name
				}
				a.names[name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						a.names[s.Name.Name] = true
						if st, ok := s.Type.(*ast.StructType); ok && !s.Assign.IsValid() {
							a.structs[s.Name.Name] = true
							for _, field := range st.Fields.List {
								for _, n := range field.Names {
									a.names[s.Name.Name+"."+n.Name] = true
								}
							}
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							a.names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return a
}

var (
	dotted   = regexp.MustCompile(`\b[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+`)
	bareWith = regexp.MustCompile(`(?:^|[^.\w])(With[A-Z]\w*)`)
)

// checkDocNames verifies every public-package name the prose documentation
// uses (rule 5), so a deleted or renamed identifier cannot live on in the
// docs.
func checkDocNames(root string, public api) ([]string, error) {
	files, err := docFiles(root)
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, path := range files {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rel, _ := filepath.Rel(root, path)
		seen := map[string]bool{}
		report := func(ref, problem string) {
			if !seen[ref] {
				seen[ref] = true
				problems = append(problems, fmt.Sprintf("%s: `%s` %s", rel, ref, problem))
			}
		}
		for _, ref := range dotted.FindAllString(string(b), -1) {
			parts := strings.Split(ref, ".")
			if parts[0] == "flex" {
				parts = parts[1:]
				if !ast.IsExported(parts[0]) {
					continue // a file name such as flex.go
				}
				if !public.names[parts[0]] {
					report(ref, "is not in the public flex package")
					continue
				}
			}
			if len(parts) < 2 || !public.structs[parts[0]] || !ast.IsExported(parts[1]) {
				continue
			}
			if !public.names[parts[0]+"."+parts[1]] {
				report(ref, fmt.Sprintf("names no field or method of flex.%s", parts[0]))
			}
		}
		for _, code := range inlineCode.FindAllStringSubmatch(stripFenced(string(b)), -1) {
			for _, m := range bareWith.FindAllStringSubmatch(code[1], -1) {
				if !public.names[m[1]] {
					report(m[1], "is not in the public flex package")
				}
			}
		}
	}
	return problems, nil
}

// stripFenced blanks ``` fenced code blocks so shell examples and their
// placeholder paths are not treated as references.
func stripFenced(text string) string {
	var out strings.Builder
	fenced := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			out.WriteString("\n")
			continue
		}
		if fenced {
			out.WriteString("\n")
			continue
		}
		out.WriteString(line)
		out.WriteString("\n")
	}
	return out.String()
}

// exists reports whether path names an existing file or directory.
func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
