package bench

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// listedPackage is the subset of `go list -json` output the export scan
// reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// exportScan type-checks the repository's packages and records, for every
// package-level object of a repository package, the files that refer to it.
type exportScan struct {
	t       *testing.T
	fset    *token.FileSet
	std     types.Importer
	checked map[string]*types.Package // non-test packages by import path
	refs    map[string]map[string]bool
}

func (s *exportScan) Import(path string) (*types.Package, error) {
	if p, ok := s.checked[path]; ok {
		return p, nil
	}
	return s.std.Import(path)
}

func (s *exportScan) parse(dir string, names []string) []*ast.File {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			s.t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// check type-checks one package and records its references to
// package-level objects, keyed "importpath.Name". Test variants share the
// import path of the package they test, so references are matched by key,
// not by object identity. Type errors fail the scan only when strict: a
// test variant's other imports were checked against the non-test package,
// so mismatched identities are expected there and do not stop resolution.
func (s *exportScan) check(path string, files []*ast.File, strict bool) *types.Package {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: s, Error: func(err error) {
		if strict {
			s.t.Errorf("type-check %s: %v", path, err)
		}
	}}
	pkg, _ := conf.Check(path, s.fset, files, info)
	for id, obj := range info.Uses {
		if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
			continue
		}
		key := obj.Pkg().Path() + "." + obj.Name()
		if s.refs[key] == nil {
			s.refs[key] = map[string]bool{}
		}
		s.refs[key][s.fset.Position(id.Pos()).Filename] = true
	}
	return pkg
}

// TestNoUnusedExports fails on any exported package-level func or var,
// declared in a non-generated, non-test file under internal/, that no other
// file of the repository refers to. Tests, cmd/, examples/ and the perfbench
// module all count as references. An export only its own file uses should
// be unexported; one nothing uses should be deleted.
func TestNoUnusedExports(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if !p.Standard {
			pkgs = append(pkgs, p)
		}
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	s := &exportScan{
		t:       t,
		fset:    token.NewFileSet(),
		std:     importer.Default(),
		checked: map[string]*types.Package{},
		refs:    map[string]map[string]bool{},
	}

	// go list -deps orders dependencies first, so every repository import
	// of a non-test package is already checked when it is needed.
	type decl struct{ key, file string }
	var decls []decl
	parsed := map[string][]*ast.File{}
	for _, p := range pkgs {
		files := s.parse(p.Dir, p.GoFiles)
		if len(files) == 0 {
			continue
		}
		parsed[p.ImportPath] = files
		s.checked[p.ImportPath] = s.check(p.ImportPath, files, true)
		rel, _ := filepath.Rel(root, p.Dir)
		rel = filepath.ToSlash(rel)
		if !strings.HasPrefix(rel, "internal/") || rel == "internal/codegen/gen" {
			continue
		}
		for _, f := range files {
			if ast.IsGenerated(f) {
				continue
			}
			file := s.fset.Position(f.Pos()).Filename
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						decls = append(decls, decl{p.ImportPath + "." + d.Name.Name, file})
					}
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						for _, n := range spec.(*ast.ValueSpec).Names {
							if n.IsExported() {
								decls = append(decls, decl{p.ImportPath + "." + n.Name, file})
							}
						}
					}
				}
			}
		}
	}

	// Test variants: the package with its internal test files, then the
	// external test package importing that variant.
	for _, p := range pkgs {
		if len(p.TestGoFiles) > 0 {
			files := append(s.parse(p.Dir, p.TestGoFiles), parsed[p.ImportPath]...)
			tested := s.check(p.ImportPath, files, false)
			if len(p.XTestGoFiles) > 0 {
				saved := s.checked[p.ImportPath]
				s.checked[p.ImportPath] = tested
				s.check(p.ImportPath+"_test", s.parse(p.Dir, p.XTestGoFiles), false)
				s.checked[p.ImportPath] = saved
			}
		} else if len(p.XTestGoFiles) > 0 {
			s.check(p.ImportPath+"_test", s.parse(p.Dir, p.XTestGoFiles), false)
		}
	}

	// perfbench is its own module (one main package) over the same import
	// paths.
	benchDir := filepath.Join(root, "perfbench")
	entries, err := os.ReadDir(benchDir)
	if err != nil {
		t.Fatal(err)
	}
	var benchFiles []string
	for _, e := range entries {
		if ok, err := build.Default.MatchFile(benchDir, e.Name()); err != nil {
			t.Fatal(err)
		} else if ok {
			benchFiles = append(benchFiles, e.Name())
		}
	}
	s.check("github.com/tinysystems/artemis-go/perfbench", s.parse(benchDir, benchFiles), true)

	var unused []string
	for _, d := range decls {
		referenced := false
		for file := range s.refs[d.key] {
			referenced = referenced || file != d.file
		}
		if !referenced {
			rel, _ := filepath.Rel(root, d.file)
			unused = append(unused, filepath.ToSlash(rel)+": "+d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but not referenced outside its own file: %s", u)
	}
}
