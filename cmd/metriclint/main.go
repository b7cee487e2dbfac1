// Command metriclint enforces the repo's metric naming rule: every
// metric family registered on a telemetry.Registry must be named by a
// string literal matching ^ixplight_[a-z_]+$ — lowercase, underscore
// separated, and carrying the module prefix so dashboards can glob
// ixplight_* across binaries.
//
// It also enforces the span naming rule: every trace span started by
// a string literal passed to StartSpan (or a package's startSpan
// helper) must match ^[a-z_]+(\.[a-z_]+)*$ — lowercase words joined
// by dots, the dot separating hierarchy levels (collector.neighbor,
// lg.request), so tracecat aggregates and ledger greps stay
// predictable.
//
// It walks every non-test Go file, finds calls to the registry
// constructors (Counter, CounterVec, Gauge, GaugeVec, Histogram,
// HistogramVec) and span starters and checks their name argument.
// Exit status 1 when any name violates a rule; the offending
// file:line is printed. Run via `make vet`.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

var namePattern = regexp.MustCompile(`^ixplight_[a-z_]+$`)

// spanPattern is the span naming rule: lowercase words joined by
// dots, each dot one hierarchy level.
var spanPattern = regexp.MustCompile(`^[a-z_]+(\.[a-z_]+)*$`)

// spanStarters are the functions whose first string-literal argument
// is a span name: telemetry.StartSpan(ctx, reg, name) and the
// nil-safe startSpan(ctx, name) helpers the instrumented packages
// define.
var spanStarters = map[string]bool{
	"StartSpan": true,
	"startSpan": true,
}

// constructors are the telemetry.Registry methods whose first argument
// is a metric family name.
var constructors = map[string]bool{
	"Counter":      true,
	"CounterVec":   true,
	"Gauge":        true,
	"GaugeVec":     true,
	"Histogram":    true,
	"HistogramVec": true,
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	fset := token.NewFileSet()
	violations := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if spanStarters[sel.Sel.Name] {
				// The span name is the first string literal: the leading
				// ctx and registry arguments never are.
				for _, arg := range call.Args {
					lit, ok := arg.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					name, err := strconv.Unquote(lit.Value)
					if err == nil && !spanPattern.MatchString(name) {
						fmt.Fprintf(os.Stderr, "%s: span name %q does not match %s\n",
							fset.Position(lit.Pos()), name, spanPattern)
						violations++
					}
					break
				}
				return true
			}
			if !constructors[sel.Sel.Name] {
				return true
			}
			lit, ok := call.Args[0].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				// Dynamic names go through SanitizeName at registration;
				// the lint covers the static catalog.
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil || namePattern.MatchString(name) {
				return true
			}
			fmt.Fprintf(os.Stderr, "%s: metric name %q does not match %s\n",
				fset.Position(lit.Pos()), name, namePattern)
			violations++
			return true
		})
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "metriclint: %d violation(s)\n", violations)
		os.Exit(1)
	}
}
