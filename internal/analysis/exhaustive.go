package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// ExhaustiveAnalyzer checks that every switch over one of the module's
// own enum types either covers all declared constants of that type or
// carries a default case. An enum is a named type declared in this module
// whose underlying type is an integer or string and which has at least
// two package-level constants of exactly that type — sched.State,
// wire.MsgKind, seq.Kind, sched.SlaveKind, sched.TaskKind,
// wire.FaultAction and metrics.Kind all qualify. Adding a constant to such a type then breaks
// the build of `make lint` at every switch that silently ignores it,
// instead of misbehaving at run time.
//
// Switches with any non-constant case expression are skipped: the
// analyzer cannot reason about them, and guessing would produce noise.
var ExhaustiveAnalyzer = &Analyzer{
	Name: "exhaustive",
	Doc:  "switches over module enum types must cover every constant or have a default case",
	Run:  runExhaustive,
}

func runExhaustive(pass *Pass) {
	pass.Pkg.Inspect(func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		tv, ok := pass.Pkg.Info.Types[sw.Tag]
		if !ok {
			return true
		}
		named, members := enumMembers(tv.Type, pass.Pkg.ModulePath)
		if named == nil || len(members) < 2 {
			return true
		}

		covered := map[string]bool{} // constant.Value.ExactString() -> seen
		for _, stmt := range sw.Body.List {
			clause := stmt.(*ast.CaseClause)
			if clause.List == nil {
				return true // default case: always exhaustive
			}
			for _, e := range clause.List {
				etv := pass.Pkg.Info.Types[e]
				if etv.Value == nil {
					return true // non-constant case: cannot reason
				}
				covered[etv.Value.ExactString()] = true
			}
		}

		var missing []string
		for _, m := range members {
			if !covered[m.val] {
				missing = append(missing, m.name)
			}
		}
		if len(missing) > 0 {
			pass.Reportf(sw.Pos(), "switch over %s misses %s and has no default case",
				types.TypeString(named, types.RelativeTo(pass.Pkg.Types)), strings.Join(missing, ", "))
		}
		return true
	})
}

// enumMember is one declared constant of an enum type; aliases with the
// same value collapse to one member (the first name in source order).
type enumMember struct {
	name string
	val  string
	obj  types.Object
}

// enumMembers reports the named type behind t if it is a module-declared
// enum, along with its declared constants.
func enumMembers(t types.Type, modulePath string) (types.Type, []enumMember) {
	named, ok := t.(*types.Named)
	if !ok {
		return nil, nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || !inModule(obj.Pkg().Path(), modulePath) {
		return nil, nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&(types.IsInteger|types.IsString) == 0 {
		return nil, nil
	}

	scope := obj.Pkg().Scope()
	byVal := map[string]enumMember{}
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		v := c.Val().ExactString()
		if prev, dup := byVal[v]; !dup || c.Pos() < prev.obj.Pos() {
			byVal[v] = enumMember{name: name, val: v, obj: c}
		}
	}
	members := make([]enumMember, 0, len(byVal))
	for _, m := range byVal {
		members = append(members, m)
	}
	// Declaration order keeps diagnostics stable and readable.
	sort.Slice(members, func(i, j int) bool {
		return members[i].obj.Pos() < members[j].obj.Pos()
	})
	return named, members
}

// inModule reports whether pkgPath belongs to the module.
func inModule(pkgPath, modulePath string) bool {
	return pkgPath == modulePath || strings.HasPrefix(pkgPath, modulePath+"/")
}
