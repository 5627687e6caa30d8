package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/printer"
	"go/token"
	"go/types"
	"io/fs"
	"reflect"
	"regexp"
	"strings"

	"bimode/internal/core"
)

// The interleaved-lanes rule belongs to the program: Scheduler.RunAll
// steps a bi-mode job through core.RunBatchInterleaved when
// interleaveFootprint(cfg) >= interleaveMinBytes, both unexported in
// internal/sim/interleave.go. Rather than keep a copy that could drift,
// the benchmark reads the two declarations from that file at run time and
// evaluates them itself, so sim.interleave_eligible_share follows any
// change to the threshold or the footprint formula.

// laneSource is the file that declares the lane rule, relative to the
// repository root the benchmark runs from.
const laneSource = "internal/sim/interleave.go"

// laneRule is the lane-eligibility test as written in laneSource.
type laneRule struct {
	minBytes  string // interleaveMinBytes' constant expression
	param     string // interleaveFootprint's core.Config parameter
	footprint string // interleaveFootprint's return expression
}

var errNoLanes = errors.New("no interleaved lanes in " + laneSource)

// readLaneRule parses the lane rule out of the program's source. It
// returns errNoLanes when the file or either declaration is gone: with no
// lanes, no job is eligible.
func readLaneRule(path string) (*laneRule, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, errNoLanes
	}
	if err != nil {
		return nil, err
	}
	text := func(e ast.Node) string {
		var b strings.Builder
		printer.Fprint(&b, fset, e)
		return b.String()
	}
	var r laneRule
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			for _, s := range d.Specs {
				if v, ok := s.(*ast.ValueSpec); ok && d.Tok == token.CONST {
					for i, n := range v.Names {
						if n.Name == "interleaveMinBytes" && i < len(v.Values) {
							r.minBytes = text(v.Values[i])
						}
					}
				}
			}
		case *ast.FuncDecl:
			if d.Name.Name != "interleaveFootprint" || d.Body == nil {
				continue
			}
			ps := d.Type.Params.List
			if len(ps) != 1 || len(ps[0].Names) != 1 || len(d.Body.List) != 1 {
				return nil, fmt.Errorf("%s: interleaveFootprint is no longer one return over one parameter", path)
			}
			ret, ok := d.Body.List[0].(*ast.ReturnStmt)
			if !ok || len(ret.Results) != 1 {
				return nil, fmt.Errorf("%s: interleaveFootprint is no longer one return over one parameter", path)
			}
			r.param, r.footprint = ps[0].Names[0].Name, text(ret.Results[0])
		}
	}
	if r.minBytes == "" || r.footprint == "" {
		return nil, errNoLanes
	}
	return &r, nil
}

// eligible evaluates the rule for one bi-mode configuration: every
// cfg.Field in the footprint expression is replaced by the field's value
// and the comparison is evaluated as a Go constant expression.
func (r *laneRule) eligible(cfg core.Config) (bool, error) {
	v := reflect.ValueOf(cfg)
	var missing string
	field := regexp.MustCompile(`\b` + regexp.QuoteMeta(r.param) + `\.(\w+)`)
	expr := field.ReplaceAllStringFunc(r.footprint, func(m string) string {
		name := m[len(r.param)+1:]
		f := v.FieldByName(name)
		if !f.IsValid() {
			missing = name
			return m
		}
		return fmt.Sprint(f.Interface())
	})
	if missing != "" {
		return false, fmt.Errorf("%s: footprint uses unknown core.Config field %s", laneSource, missing)
	}
	tv, err := types.Eval(token.NewFileSet(), nil, token.NoPos, "("+expr+") >= ("+r.minBytes+")")
	if err != nil || tv.Value == nil || tv.Value.Kind() != constant.Bool {
		return false, fmt.Errorf("%s: cannot evaluate the lane rule %q >= %q: %v", laneSource, expr, r.minBytes, err)
	}
	return constant.BoolVal(tv.Value), nil
}
