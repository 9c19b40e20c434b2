package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fixture is a small module that passes every rule: a public flex package
// with a struct type, an alias of an internal type, a non-struct type and
// a functional option, one internal package, the package map, and a README
// naming all of them.
func fixture() map[string]string {
	return map[string]string{
		"go.mod": "module example.com/flex\n\ngo 1.22\n",
		"flex.go": `// Package flex is the fixture's public package.
package flex

import "example.com/flex/internal/model"

// Layout is re-exported from internal/model.
type Layout = model.Layout

// BatchJob is one job.
type BatchJob struct {
	// Shards is the band count.
	Shards int
}

// Tagged reports whether the job has a tag.
func (j BatchJob) Tagged() bool { return false }

// Engine selects an engine.
type Engine int

// String names the engine.
func (e Engine) String() string { return "" }

// Option configures a service.
type Option func()

// WithShards sets a default.
func WithShards(k int) Option { return nil }

// LegalizeBatch runs a batch.
func LegalizeBatch() {}
`,
		"internal/model/model.go": "// Package model is the fixture's data model.\npackage model\n\n// Layout is a design.\ntype Layout struct{}\n",
		"docs/ARCHITECTURE.md":    "# Architecture\n\n## Package map\n\n| Package | Role |\n|---|---|\n| `internal/model` | The data model. |\n",
		"README.md": "# fixture\n\n" +
			"Run `flex.LegalizeBatch` with `WithShards(4)`; see `BatchJob.Shards`,\n" +
			"BatchJob.Tagged and flex.BatchJob.Shards. Skipped: Layout.ApproxBytes\n" +
			"(alias), Engine.Label (not a struct), model.BatchJob.Gone (another\n" +
			"package), r.Outcome.Legal, and the file flex.go.\n\n" +
			"```go\nflex.LegalizeBatch()\n```\n",
	}
}

// runFixture writes files as a module under a temp directory and runs
// every rule over it.
func runFixture(t *testing.T, files map[string]string) []string {
	t.Helper()
	root := filepath.Join(t.TempDir(), "mod")
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	problems, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	return problems
}

func TestFixtureClean(t *testing.T) {
	if problems := runFixture(t, fixture()); len(problems) != 0 {
		t.Fatalf("clean fixture reported problems:\n%s", strings.Join(problems, "\n"))
	}
}

// TestRules breaks the fixture one way per case and checks that exactly
// the expected problem lines come back.
func TestRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(files map[string]string)
		want []string
	}{
		{
			name: "rule 1: package doc",
			edit: func(f map[string]string) {
				f["internal/model/model.go"] = "package model\n"
			},
			want: []string{"internal/model: package model has no package doc comment"},
		},
		{
			name: "rule 2: exported doc",
			edit: func(f map[string]string) {
				f["flex.go"] = strings.Replace(f["flex.go"], "// LegalizeBatch runs a batch.\n", "", 1)
			},
			want: []string{"/mod/flex.go: func LegalizeBatch is undocumented"},
		},
		{
			name: "rule 3: referenced path",
			edit: func(f map[string]string) {
				f["README.md"] += "\nSee `internal/gone` and [the guide](docs/GUIDE.md).\n"
			},
			want: []string{
				"README.md: link target \"docs/GUIDE.md\" does not exist",
				"README.md: referenced path `internal/gone` does not exist",
			},
		},
		{
			name: "rule 4: package map",
			edit: func(f map[string]string) {
				f["internal/extra/extra.go"] = "// Package extra is unmapped.\npackage extra\n"
			},
			want: []string{"docs/ARCHITECTURE.md: package map has no row for `internal/extra`"},
		},
		{
			name: "rule 5: function deleted from the code but not the docs",
			edit: func(f map[string]string) {
				f["flex.go"] = strings.Replace(f["flex.go"], "// LegalizeBatch runs a batch.\nfunc LegalizeBatch() {}\n", "", 1)
			},
			want: []string{"README.md: `flex.LegalizeBatch` is not in the public flex package"},
		},
		{
			name: "rule 5: bare option",
			edit: func(f map[string]string) {
				f["docs/GUIDE.md"] = "Set `WithTracer(t)` or `WithShards`; WithGone in prose is not code.\n"
			},
			want: []string{"docs/GUIDE.md: `WithTracer` is not in the public flex package"},
		},
		{
			name: "rule 5: struct members",
			edit: func(f map[string]string) {
				f["docs/GUIDE.md"] = "`BatchJob.NeedsFPGA`, flex.BatchJob.Halo and BatchJob.NeedsFPGA again.\n"
			},
			want: []string{
				"docs/GUIDE.md: `BatchJob.NeedsFPGA` names no field or method of flex.BatchJob",
				"docs/GUIDE.md: `flex.BatchJob.Halo` names no field or method of flex.BatchJob",
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			files := fixture()
			tc.edit(files)
			got := runFixture(t, files)
			for i, p := range got {
				// Rule 2 reports absolute file paths; keep the fixture-relative tail.
				if j := strings.Index(p, "/mod/"); j >= 0 {
					got[i] = p[j:]
				}
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(tc.want, "\n"))
			}
		})
	}
}
