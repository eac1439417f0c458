package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
)

const schemadriftName = "schemadrift"

// schemaConstRE matches versioned wire-format identifiers like
// "dsre-sweep-record/v3".
var schemaConstRE = regexp.MustCompile(`^[A-Za-z0-9._-]+/v[0-9]+$`)

// SchemaGolden is the checked-in wire-shape record of one schema-declaring
// package: its version constants and the JSON-visible shape of every struct
// reachable from its wire roots.  Goldens live under Config.SchemaDir, one
// file per package, regenerated with `dsre-lint -write-schemas`.
type SchemaGolden struct {
	Package   string         `json:"package"`
	Constants []SchemaConst  `json:"constants"`
	Structs   []SchemaStruct `json:"structs"`
}

// SchemaConst is one `X = ".../vN"` declaration.
type SchemaConst struct {
	Name  string `json:"name"`
	Value string `json:"value"`
}

// SchemaStruct is the field shape of one reachable struct.
type SchemaStruct struct {
	Name   string        `json:"name"` // "relpkg.TypeName"
	Fields []SchemaField `json:"fields"`
}

// SchemaField pins one field's name, json tag and rendered type.
type SchemaField struct {
	Name string `json:"name"`
	JSON string `json:"json,omitempty"` // raw `json:"..."` tag value
	Type string `json:"type"`
}

// schemadrift locates every package declaring a */vN schema constant,
// computes the JSON wire shape of every struct reachable from it, and
// compares against the checked-in goldens: a shape change without a
// regenerated golden (and, when the constants did not move, without a
// version bump) fails the lint.  Stale goldens for packages that no longer
// declare schemas are reported too.
func schemadrift(p *pass) {
	if p.cfg.SchemaDir == "" {
		return
	}
	computed, constPos := computeSchemas(p.mod)
	dir := filepath.Join(p.mod.Root, filepath.FromSlash(p.cfg.SchemaDir))

	names := make([]string, 0, len(computed))
	for name := range computed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		want := computed[name]
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			p.reportf(schemadriftName, constPos[want.Package],
				"package %s declares wire schemas but has no golden %s — run `dsre-lint -write-schemas` and commit the result",
				want.Package, p.cfg.SchemaDir+"/"+name)
			continue
		}
		var have SchemaGolden
		if err := json.Unmarshal(data, &have); err != nil {
			p.reportf(schemadriftName, constPos[want.Package],
				"golden %s is not valid JSON (%v) — regenerate with `dsre-lint -write-schemas`", p.cfg.SchemaDir+"/"+name, err)
			continue
		}
		p.diffSchemas(want, &have, name, constPos[want.Package])
	}

	// Goldens with no surviving schema package are stale.
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
				continue
			}
			if _, ok := computed[e.Name()]; !ok {
				p.diags = append(p.diags, Diag{
					File: p.cfg.SchemaDir + "/" + e.Name(), Line: 1, Col: 1,
					Analyzer: schemadriftName,
					Message:  "stale schema golden: no package declares these wire schemas any more — delete it (or run `dsre-lint -write-schemas`)",
				})
			}
		}
	}
}

// diffSchemas reports the precise drift between the computed shape and the
// checked-in golden.
func (p *pass) diffSchemas(want, have *SchemaGolden, file string, pos token.Pos) {
	rerun := "run `dsre-lint -write-schemas` and commit the refreshed golden"
	constsEqual := reflect.DeepEqual(want.Constants, have.Constants)
	if !constsEqual {
		p.reportf(schemadriftName, pos,
			"schema constants of %s changed (golden %s disagrees) — %s", want.Package, file, rerun)
	}
	haveByName := map[string][]SchemaField{}
	for _, s := range have.Structs {
		haveByName[s.Name] = s.Fields
	}
	wantNames := map[string]bool{}
	for _, s := range want.Structs {
		wantNames[s.Name] = true
		hf, ok := haveByName[s.Name]
		if !ok {
			p.reportf(schemadriftName, pos,
				"wire struct %s is new in %s's schema closure — %s", s.Name, want.Package, rerun)
			continue
		}
		if !reflect.DeepEqual(s.Fields, hf) {
			if constsEqual {
				p.reportf(schemadriftName, pos,
					"wire struct %s changed JSON shape but %s's schema constants did not — bump the version constant, then %s",
					s.Name, want.Package, rerun)
			} else {
				p.reportf(schemadriftName, pos,
					"wire struct %s changed JSON shape — %s", s.Name, rerun)
			}
		}
	}
	for _, s := range have.Structs {
		if !wantNames[s.Name] {
			p.reportf(schemadriftName, pos,
				"wire struct %s left %s's schema closure — %s", s.Name, want.Package, rerun)
		}
	}
}

// Schemas computes the wire-schema goldens of the module: filename →
// deterministic JSON content.  cmd/dsre-lint -write-schemas writes these to
// Config.SchemaDir.
func Schemas(m *Module) (map[string][]byte, error) {
	computed, _ := computeSchemas(m)
	out := make(map[string][]byte, len(computed))
	for name, g := range computed {
		data, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			return nil, fmt.Errorf("lint: marshal schema golden %s: %w", name, err)
		}
		out[name] = append(data, '\n')
	}
	return out, nil
}

// computeSchemas builds the golden for every schema-declaring package, plus
// a representative position per package for diagnostics.
func computeSchemas(m *Module) (map[string]*SchemaGolden, map[string]token.Pos) {
	goldens := map[string]*SchemaGolden{}
	constPos := map[string]token.Pos{}
	for _, pkg := range m.Pkgs {
		consts := schemaConsts(m, pkg)
		if len(consts) == 0 {
			continue
		}
		display := pkg.RelPath
		if display == "" {
			display = "."
		}
		g := &SchemaGolden{Package: display}
		for _, c := range consts {
			g.Constants = append(g.Constants, SchemaConst{Name: c.name, Value: c.value})
			if _, ok := constPos[display]; !ok {
				constPos[display] = c.pos
			}
		}
		sort.Slice(g.Constants, func(i, j int) bool { return g.Constants[i].Name < g.Constants[j].Name })

		closure := map[*types.Named]bool{}
		scope := pkg.Types.Scope()
		rootNames := scope.Names() // sorted
		for _, n := range rootNames {
			tn, ok := scope.Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			st, ok := named.Underlying().(*types.Struct)
			if !ok || !hasJSONTag(st) {
				continue
			}
			collectStructClosure(m, named, closure)
		}
		var structs []*types.Named
		for n := range closure {
			structs = append(structs, n)
		}
		qual := moduleQualifier(m)
		sort.Slice(structs, func(i, j int) bool {
			return structDisplayName(m, structs[i]) < structDisplayName(m, structs[j])
		})
		for _, named := range structs {
			st := named.Underlying().(*types.Struct)
			ss := SchemaStruct{Name: structDisplayName(m, named)}
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				tag := reflect.StructTag(st.Tag(i)).Get("json")
				ss.Fields = append(ss.Fields, SchemaField{
					Name: f.Name(), JSON: tag, Type: types.TypeString(f.Type(), qual),
				})
			}
			g.Structs = append(g.Structs, ss)
		}
		goldens[schemaFileName(display)] = g
	}
	return goldens, constPos
}

type schemaConst struct {
	name, value string
	pos         token.Pos
}

// schemaConsts finds package-scope string constants whose value looks like
// a versioned wire-format name.
func schemaConsts(m *Module, pkg *Package) []schemaConst {
	var out []schemaConst
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						continue
					}
					c, ok := m.Info.Defs[name].(*types.Const)
					if !ok || c.Val().Kind() != constant.String {
						continue
					}
					val := constant.StringVal(c.Val())
					if schemaConstRE.MatchString(val) {
						out = append(out, schemaConst{name: name.Name, value: val, pos: name.Pos()})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// hasJSONTag reports whether any field carries a json struct tag.
func hasJSONTag(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if reflect.StructTag(st.Tag(i)).Get("json") != "" {
			return true
		}
	}
	return false
}

// collectStructClosure adds named and every module-local named struct its
// fields (transitively) reference.
func collectStructClosure(m *Module, named *types.Named, out map[*types.Named]bool) {
	if out[named] {
		return
	}
	out[named] = true
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		collectReferencedStructs(m, st.Field(i).Type(), out)
	}
}

func collectReferencedStructs(m *Module, t types.Type, out map[*types.Named]bool) {
	switch t := t.(type) {
	case *types.Named:
		if !moduleLocal(m, t) {
			return
		}
		if _, ok := t.Underlying().(*types.Struct); ok {
			collectStructClosure(m, t, out)
		}
	case *types.Pointer:
		collectReferencedStructs(m, t.Elem(), out)
	case *types.Slice:
		collectReferencedStructs(m, t.Elem(), out)
	case *types.Array:
		collectReferencedStructs(m, t.Elem(), out)
	case *types.Map:
		collectReferencedStructs(m, t.Key(), out)
		collectReferencedStructs(m, t.Elem(), out)
	case *types.Chan:
		collectReferencedStructs(m, t.Elem(), out)
	case *types.Struct: // anonymous struct field
		for i := 0; i < t.NumFields(); i++ {
			collectReferencedStructs(m, t.Field(i).Type(), out)
		}
	}
}

func moduleLocal(m *Module, named *types.Named) bool {
	pkg := named.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return pkg.Path() == m.Path || strings.HasPrefix(pkg.Path(), m.Path+"/")
}

// moduleQualifier renders module-local packages by their relative path and
// everything else by its import path, independent of the module name.
func moduleQualifier(m *Module) types.Qualifier {
	return func(other *types.Package) string {
		path := other.Path()
		if path == m.Path {
			return "."
		}
		if rest, ok := strings.CutPrefix(path, m.Path+"/"); ok {
			return rest
		}
		return path
	}
}

func structDisplayName(m *Module, named *types.Named) string {
	return moduleQualifier(m)(named.Obj().Pkg()) + "." + named.Obj().Name()
}

// schemaFileName maps a package's display path to its golden filename.
func schemaFileName(display string) string {
	if display == "." {
		return "root.json"
	}
	return strings.ReplaceAll(display, "/", "-") + ".json"
}
