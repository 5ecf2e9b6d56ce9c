package repro

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"strconv"
	"strings"
	"testing"
	"testing/fstest"

	"repro/internal/graph"
)

// embeddedTree copies the embedded sources into a MapFS a test can edit,
// and returns the directories that hold them.
func embeddedTree(t *testing.T) (fstest.MapFS, []string) {
	t.Helper()
	tree := fstest.MapFS{}
	var dirs []string
	err := fs.WalkDir(sources, ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := fs.ReadFile(sources, p)
		if err != nil {
			return err
		}
		tree[p] = &fstest.MapFile{Data: data}
		if dir := path.Dir(p); len(dirs) == 0 || dirs[len(dirs)-1] != dir {
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tree, dirs
}

// firstFile returns the first file of dir in tree that is (or is not) a
// test file, or "".
func firstFile(tree fstest.MapFS, dir string, test bool) string {
	entries, _ := tree.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), "_test.go") == test {
			return path.Join(dir, e.Name())
		}
	}
	return ""
}

// TestCodeEpoch: the epoch of the binary is the hash of the embedded
// tree, not zero, and the same on every call.
func TestCodeEpoch(t *testing.T) {
	tree, dirs := embeddedTree(t)
	e := CodeEpoch()
	t.Logf("code epoch %016x%016x over %d files in %d directories", e[0], e[1], len(tree), len(dirs))
	if e == (graph.Hash128{}) {
		t.Fatal("code epoch is zero")
	}
	if e != CodeEpoch() || e != hashSources(tree) {
		t.Fatal("code epoch is not a function of the embedded tree")
	}
}

// TestEpochPerturbation edits a copy of the embedded tree one change at
// a time: a byte of a non-test file in every embedded directory, a
// rename, a removal and a split each move the epoch; anything done to a
// _test.go file does not (a test cannot change a verdict).
func TestEpochPerturbation(t *testing.T) {
	type edit struct {
		name    string
		apply   func(fstest.MapFS)
		changes bool
	}
	flip := func(file string) func(fstest.MapFS) {
		return func(tree fstest.MapFS) {
			data := tree[file].Data // this tree's own copy
			data[len(data)/2] ^= 1
		}
	}
	base, dirs := embeddedTree(t)
	var edits []edit
	for _, dir := range dirs {
		src := firstFile(base, dir, false)
		if src == "" {
			t.Fatalf("%s embeds no non-test source", dir)
		}
		edits = append(edits, edit{"one byte of " + src, flip(src), true})
		if tst := firstFile(base, dir, true); tst != "" {
			edits = append(edits, edit{"one byte of " + tst, flip(tst), false})
		}
	}
	src, tst := firstFile(base, dirs[0], false), firstFile(base, dirs[0], true)
	if tst == "" {
		t.Fatalf("%s embeds no _test.go file", dirs[0])
	}
	moved := path.Join(dirs[0], "renamed_"+path.Base(src))
	edits = append(edits,
		edit{"rename " + src, func(tree fstest.MapFS) { tree[moved] = tree[src]; delete(tree, src) }, true},
		edit{"drop " + src, func(tree fstest.MapFS) { delete(tree, src) }, true},
		edit{"split " + src, func(tree fstest.MapFS) {
			data := tree[src].Data
			tree[src] = &fstest.MapFile{Data: data[:len(data)/2]}
			tree[moved] = &fstest.MapFile{Data: data[len(data)/2:]}
		}, true},
		edit{"drop " + tst, func(tree fstest.MapFS) { delete(tree, tst) }, false},
		edit{"add a _test.go file", func(tree fstest.MapFS) {
			tree[path.Join(dirs[0], "added_test.go")] = &fstest.MapFile{Data: []byte("package p\n")}
		}, false},
		edit{"add a file that is not Go", func(tree fstest.MapFS) {
			tree[path.Join(dirs[0], "notes.txt")] = &fstest.MapFile{Data: []byte("notes\n")}
		}, false},
	)

	want := hashSources(base)
	for _, e := range edits {
		tree, _ := embeddedTree(t)
		e.apply(tree)
		if got := hashSources(tree); (got != want) != e.changes {
			t.Errorf("%s: epoch changed = %v, want %v", e.name, got != want, e.changes)
		}
	}
}

// epochExempt names the packages the embedded sources may import without
// being part of the epoch, each with the reason no edit to it can change
// a verdict or the key one is stored under.
var epochExempt = map[string]string{
	"repro":                      "this package: the epoch's own hash, which judges nothing; an edit to what it covers changes its value",
	"repro/internal/faultinject": "failpoints for the chaos tests: inert unless VSYNC_FAULTS or a test arms one, and an armed one fails an I/O call, it does not alter a result",
	"repro/internal/report":      "renders tables of results for people; reads verdicts, makes none",
	"repro/internal/bench":       "the paper's performance tables over wmsim, re-exported by vsync; measures locks, verifies nothing",
	"repro/internal/wmsim":       "the timing simulator under bench; no AMC run touches it",
}

// TestEpochImportClosure: every package of this module that the embedded
// sources import is itself embedded or exempt by name. A new package a
// verdict depends on cannot be left out of the epoch unnoticed.
func TestEpochImportClosure(t *testing.T) {
	tree, dirs := embeddedTree(t)
	covered := map[string]bool{}
	for _, dir := range dirs {
		covered["repro/"+dir] = true
	}
	used := map[string]bool{}
	fset := token.NewFileSet()
	for file, f := range tree {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(fset, file, f.Data, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range parsed.Imports {
			pkg, _ := strconv.Unquote(imp.Path.Value)
			if pkg != "repro" && !strings.HasPrefix(pkg, "repro/") {
				continue
			}
			used[pkg] = true
			if _, exempt := epochExempt[pkg]; !covered[pkg] && !exempt {
				t.Errorf("%s imports %s, which is neither embedded in epoch.go nor in epochExempt", file, pkg)
			}
		}
	}
	for pkg := range epochExempt {
		if covered[pkg] {
			t.Errorf("%s is both embedded and exempt", pkg)
		}
		if !used[pkg] {
			t.Errorf("%s is exempt but no embedded source imports it; drop the entry", pkg)
		}
	}
}
