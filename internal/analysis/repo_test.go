package analysis

// The repo-wide gates: flexvet over the whole module must report zero
// diagnostics, and docs/ANALYSIS.md must describe exactly the registered
// analyzers. Every intentional exception in the tree is annotated with a
// //flexvet: justification, so the moment a violation (or a stale
// justification) lands, TestRepoClean — and CI — fails with the exact
// file:line and message.

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// moduleRoot returns the directory of the enclosing module's go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatalf("go env GOMOD: %v", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == "/dev/null" {
		t.Skip("not in a module")
	}
	return filepath.Dir(gomod)
}

func TestRepoClean(t *testing.T) {
	pkgs, err := Load(moduleRoot(t), "./...")
	if err != nil {
		t.Fatalf("loading module packages: %v", err)
	}
	for _, pkg := range pkgs {
		for _, d := range RunAnalyzers(All(), pkg) {
			t.Errorf("%s", d)
		}
	}
}

var (
	// docRowRE matches a row of ANALYSIS.md's analyzer table.
	docRowRE = regexp.MustCompile("(?m)^\\| `([a-z]+)` \\|")
	// docTokensRE matches the grammar sentence's token list.
	docTokensRE = regexp.MustCompile("tokens ((?:`[a-z]+`,?\\s*)+);")
	docCodeRE   = regexp.MustCompile("`([a-z]+)`")
)

// TestAnalysisDocInventory holds docs/ANALYSIS.md to the registry: the
// analyzer table has one row per analyzer All() returns, and the
// justification grammar lists exactly their tokens.
func TestAnalysisDocInventory(t *testing.T) {
	b, err := os.ReadFile(filepath.Join(moduleRoot(t), "docs", "ANALYSIS.md"))
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	var names, tokens []string
	for _, a := range All() {
		names = append(names, a.Name)
		if a.JustifyToken != "" {
			tokens = append(tokens, a.JustifyToken)
		}
	}
	var rows []string
	for _, m := range docRowRE.FindAllStringSubmatch(doc, -1) {
		rows = append(rows, m[1])
	}
	sameSet(t, "analyzer table rows", rows, "registered analyzers", names)

	m := docTokensRE.FindStringSubmatch(doc)
	if m == nil {
		t.Fatal("docs/ANALYSIS.md has no \"tokens `a`, `b`;\" grammar sentence")
	}
	var listed []string
	for _, c := range docCodeRE.FindAllStringSubmatch(m[1], -1) {
		listed = append(listed, c[1])
	}
	sameSet(t, "documented justification tokens", listed, "analyzer JustifyTokens", tokens)
}

// sameSet reports each element of one list missing from the other.
func sameSet(t *testing.T, docName string, doc []string, regName string, reg []string) {
	t.Helper()
	for _, s := range reg {
		if !slices.Contains(doc, s) {
			t.Errorf("%q is among the %s but not the %s", s, regName, docName)
		}
	}
	for _, s := range doc {
		if !slices.Contains(reg, s) {
			t.Errorf("%q is among the %s but not the %s", s, docName, regName)
		}
	}
}
