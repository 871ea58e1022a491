package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	"sync"
	"testing"
)

// modulePath prefixes every repository import path, the perfbench module's
// included.
const modulePath = "github.com/tinysystems/artemis-go"

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

// decl is one exported declaration under internal/ that the scan checks.
type decl struct {
	key  string    // "importpath.Name", or "importpath.Type.Field" for a field
	file string    // declaring file
	pos  token.Pos // fields only: the field name's position
}

// repoScan is one type-check pass over the repository's packages, their
// tests and the perfbench module. For every package-level object of a
// repository package it records the files that refer to it, and for every
// repository struct field the files that write it.
type repoScan struct {
	root    string
	fset    *token.FileSet
	std     types.Importer
	checked map[string]*types.Package // non-test packages by import path
	errs    []error
	refs    map[string]map[string]bool
	writes  map[token.Pos]map[string]bool
	// exports are the exported package-level funcs and vars, and fields the
	// exported fields of exported structs named *Config or *Options, both
	// declared in non-generated, non-test files under internal/.
	exports []decl
	fields  []decl
}

var (
	scanOnce sync.Once
	scanned  *repoScan
	scanErr  error
)

// scanRepo runs the scan once per test binary and shares the result.
func scanRepo(t *testing.T) *repoScan {
	t.Helper()
	scanOnce.Do(func() { scanned, scanErr = newRepoScan() })
	if scanErr != nil {
		t.Fatal(scanErr)
	}
	for _, err := range scanned.errs {
		t.Error(err)
	}
	return scanned
}

func (s *repoScan) Import(path string) (*types.Package, error) {
	if p, ok := s.checked[path]; ok {
		return p, nil
	}
	return s.std.Import(path)
}

func (s *repoScan) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one package and records its references to
// package-level objects, keyed "importpath.Name", and its writes to
// repository struct fields, keyed by the field's declaring position. Test
// variants share the import path and the parsed non-test files of the
// package they test, so both keys match across variants where object
// identity would not. Type errors fail the scan only when strict: a test
// variant's other imports were checked against the non-test package, so
// mismatched identities are expected there and do not stop resolution.
func (s *repoScan) check(path string, files []*ast.File, strict bool) *types.Package {
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: s, Error: func(err error) {
		if strict {
			s.errs = append(s.errs, fmt.Errorf("type-check %s: %w", path, err))
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
	for _, f := range files {
		s.recordWrites(info, f)
	}
	return pkg
}

// recordWrites records every field file f writes: a keyed or positional
// composite-literal element, an assignment target, an increment or
// decrement, or an address taken.
func (s *repoScan) recordWrites(info *types.Info, f *ast.File) {
	file := s.fset.Position(f.Pos()).Filename
	record := func(obj types.Object) {
		v, ok := obj.(*types.Var)
		if !ok || !v.IsField() || v.Pkg() == nil || !strings.HasPrefix(v.Pkg().Path(), modulePath) {
			return
		}
		if s.writes[v.Pos()] == nil {
			s.writes[v.Pos()] = map[string]bool{}
		}
		s.writes[v.Pos()][file] = true
	}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			record(info.Uses[sel.Sel])
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				target(lhs)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X)
			}
		case *ast.CompositeLit:
			typ := info.TypeOf(n)
			if typ == nil {
				break
			}
			if p, ok := typ.Underlying().(*types.Pointer); ok {
				typ = p.Elem()
			}
			st, ok := typ.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						record(info.Uses[id])
					}
				} else if i < st.NumFields() {
					record(st.Field(i))
				}
			}
		}
		return true
	})
}

// collect records the checked declarations of one non-test file under
// internal/.
func (s *repoScan) collect(path string, f *ast.File) {
	file := s.fset.Position(f.Pos()).Filename
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				s.exports = append(s.exports, decl{key: path + "." + d.Name.Name, file: file})
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					if d.Tok != token.VAR {
						continue
					}
					for _, n := range spec.Names {
						if n.IsExported() {
							s.exports = append(s.exports, decl{key: path + "." + n.Name, file: file})
						}
					}
				case *ast.TypeSpec:
					name := spec.Name.Name
					st, ok := spec.Type.(*ast.StructType)
					if !ok || !spec.Name.IsExported() ||
						!(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
						continue
					}
					for _, field := range st.Fields.List {
						for _, n := range field.Names {
							if n.IsExported() {
								s.fields = append(s.fields, decl{key: path + "." + name + "." + n.Name, file: file, pos: n.Pos()})
							}
						}
					}
				}
			}
		}
	}
}

func newRepoScan() (*repoScan, error) {
	out, err := exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		if !p.Standard {
			pkgs = append(pkgs, p)
		}
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	s := &repoScan{
		root:    root,
		fset:    token.NewFileSet(),
		std:     importer.Default(),
		checked: map[string]*types.Package{},
		refs:    map[string]map[string]bool{},
		writes:  map[token.Pos]map[string]bool{},
	}

	// go list -deps orders dependencies first, so every repository import
	// of a non-test package is already checked when it is needed.
	parsed := map[string][]*ast.File{}
	for _, p := range pkgs {
		files, err := s.parse(p.Dir, p.GoFiles)
		if err != nil {
			return nil, err
		}
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
			if !ast.IsGenerated(f) {
				s.collect(p.ImportPath, f)
			}
		}
	}

	// Test variants: the package with its internal test files, then the
	// external test package importing that variant.
	for _, p := range pkgs {
		tests, err := s.parse(p.Dir, p.TestGoFiles)
		if err != nil {
			return nil, err
		}
		xtests, err := s.parse(p.Dir, p.XTestGoFiles)
		if err != nil {
			return nil, err
		}
		if len(tests) > 0 {
			tested := s.check(p.ImportPath, append(tests, parsed[p.ImportPath]...), false)
			if len(xtests) > 0 {
				saved := s.checked[p.ImportPath]
				s.checked[p.ImportPath] = tested
				s.check(p.ImportPath+"_test", xtests, false)
				s.checked[p.ImportPath] = saved
			}
		} else if len(xtests) > 0 {
			s.check(p.ImportPath+"_test", xtests, false)
		}
	}

	// perfbench is its own module (one main package) over the same import
	// paths.
	benchDir := filepath.Join(root, "perfbench")
	entries, err := os.ReadDir(benchDir)
	if err != nil {
		return nil, err
	}
	var benchFiles []string
	for _, e := range entries {
		if ok, err := build.Default.MatchFile(benchDir, e.Name()); err != nil {
			return nil, err
		} else if ok {
			benchFiles = append(benchFiles, e.Name())
		}
	}
	files, err := s.parse(benchDir, benchFiles)
	if err != nil {
		return nil, err
	}
	s.check(modulePath+"/perfbench", files, true)
	return s, nil
}

func (s *repoScan) rel(file string) string {
	rel, _ := filepath.Rel(s.root, file)
	return filepath.ToSlash(rel)
}

// TestNoUnusedExports fails on any exported package-level func or var,
// declared in a non-generated, non-test file under internal/, that no other
// file of the repository refers to. Tests, cmd/, examples/ and the perfbench
// module all count as references. An export only its own file uses should
// be unexported; one nothing uses should be deleted.
func TestNoUnusedExports(t *testing.T) {
	s := scanRepo(t)
	var unused []string
	for _, d := range s.exports {
		referenced := false
		for file := range s.refs[d.key] {
			referenced = referenced || file != d.file
		}
		if !referenced {
			unused = append(unused, s.rel(d.file)+": "+d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but not referenced outside its own file: %s", u)
	}
}

// TestNoUnsetConfigFields fails on any exported field of an exported struct
// named *Config or *Options, declared in a non-generated file under
// internal/, that no file writes except the declaring package's own non-test
// files. Tests, cmd/, examples/ and the perfbench module all count as
// writers. A field every caller leaves at its default is a knob guarding the
// only branch that runs: replace its reads with the default and delete it.
func TestNoUnsetConfigFields(t *testing.T) {
	s := scanRepo(t)
	var unset []string
	for _, d := range s.fields {
		dir := filepath.Dir(d.file)
		set := false
		for file := range s.writes[d.pos] {
			set = set || filepath.Dir(file) != dir || strings.HasSuffix(file, "_test.go")
		}
		if !set {
			unset = append(unset, s.rel(d.file)+": "+d.key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("config field set by no caller outside its package: %s", u)
	}
}
