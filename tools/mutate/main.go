// Command mutate scores a package's tests by mutation.
//
//	go run ./tools/mutate DIR...
//
// For every non-test Go file of each listed package it makes one mutant per
// site of these operators:
//
//   - negate an if or for condition
//   - swap < and <=, > and >=, == and !=, && and ||, + and -
//   - drop a call, ++/-- or +=/-= statement (a for loop's post statement is
//     left alone: without it the loop never ends, and a hang asserts nothing)
//   - replace a non-zero integer literal with 0
//   - return early, with zero results, from a function
//
// No file is written in the checkout: each mutant is handed to
// `go test -json -count=1 -overlay` over the tests of the mutated package
// and of every listed package that imports it. When a test binary panics or
// times out, the tests it did not finish are credited and the package runs
// again with -skip over every test already credited or passed, so each test
// that fails on a mutant is named. A mutant that does not compile is
// discarded.
//
// Stdout gets one JSON line per mutant: its position, operator, the text it
// replaced, status (killed, timeout or survived) and the killing tests as
// package:Test. Stderr gets one summary line per package.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

const (
	// runTimeout is each test binary's -timeout. The packages this tool is
	// run over finish their tests in well under a second, so a binary still
	// running after this is hung by its mutant.
	runTimeout = 5 * time.Second
	// mutantBudget bounds the time one mutant gets, reruns included; a
	// mutant that hangs every test would otherwise take one runTimeout per
	// test, so its kill set is cut short (record.Partial).
	mutantBudget = 20 * time.Second
)

// pkg is one listed package, as go list reports it.
type pkg struct {
	ImportPath   string
	Dir          string
	GoFiles      []string
	Deps         []string
	TestImports  []string
	XTestImports []string

	tests   []*pkg // the packages whose tests run on its mutants
	mutants []*mutant
}

// mutant is one edit of one file: src[start:end] becomes repl.
type mutant struct {
	pkg        *pkg
	file       string // absolute path
	pos        token.Position
	fn         string // enclosing function
	op         string
	orig       string
	start, end int
	repl       string
	src        []byte
}

// record is a mutant's stdout line.
type record struct {
	Pos    string   `json:"pos"`
	Func   string   `json:"func"`
	Op     string   `json:"op"`
	Orig   string   `json:"orig"`
	Status string   `json:"status"`
	Tests  []string `json:"tests,omitempty"`
	// Partial marks a kill set cut short by mutantBudget.
	Partial bool `json:"partial,omitempty"`
	// discarded marks a mutant that did not compile; it gets no line.
	discarded bool
}

func main() {
	if len(os.Args) < 2 || strings.HasPrefix(os.Args[1], "-") {
		fmt.Fprintln(os.Stderr, "usage: go run ./tools/mutate DIR...")
		os.Exit(2)
	}
	if err := run(os.Args[1:], os.Stdout, os.Stderr, max(1, min(runtime.NumCPU(), 4))); err != nil {
		fmt.Fprintln(os.Stderr, "mutate:", err)
		os.Exit(1)
	}
}

// run mutates the packages in dirs with workers mutants in flight, writing
// one line per mutant to out and one summary per package to log.
func run(dirs []string, out, log io.Writer, workers int) error {
	pkgs, err := listPackages(dirs)
	if err != nil {
		return err
	}
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	for _, p := range pkgs {
		if err := p.enumerate(); err != nil {
			return err
		}
	}
	outs, err := goTest(context.Background(), "", paths(pkgs))
	if err != nil {
		return err
	}
	for path, o := range outs {
		if len(o.failed) > 0 {
			return fmt.Errorf("%s fails before any mutation: %s", path, strings.Join(o.failed, " "))
		}
	}

	tmp, err := os.MkdirTemp("", "mutate")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var all []*mutant
	for _, p := range pkgs {
		all = append(all, p.mutants...)
	}
	results := make([]chan record, len(all))
	for i := range results {
		results[i] = make(chan record, 1)
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] <- all[i].test(filepath.Join(tmp, fmt.Sprint(w)), cwd)
			}
		}()
	}
	go func() {
		for i := range all {
			next <- i
		}
		close(next)
	}()

	enc := json.NewEncoder(out)
	enc.SetEscapeHTML(false)
	i := 0
	for _, p := range pkgs {
		start := time.Now()
		counts := map[string]int{}
		for range p.mutants {
			r := <-results[i]
			i++
			if r.discarded {
				continue
			}
			counts[r.Status]++
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		n := counts["killed"] + counts["timeout"] + counts["survived"]
		fmt.Fprintf(log, "{\"pkg\":%q,\"mutants\":%d,\"killed\":%d,\"timeout\":%d,\"survived\":%d,\"seconds\":%.0f}\n",
			p.ImportPath, n, counts["killed"], counts["timeout"], counts["survived"], time.Since(start).Seconds())
	}
	wg.Wait()
	return nil
}

func listPackages(dirs []string) ([]*pkg, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles,Deps,TestImports,XTestImports"}, dirs...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []*pkg
	for dec := json.NewDecoder(bytes.NewReader(b)); dec.More(); {
		p := new(pkg)
		if err := dec.Decode(p); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	for _, p := range pkgs {
		for _, q := range pkgs {
			if q == p || slices.Contains(q.Deps, p.ImportPath) ||
				slices.Contains(q.TestImports, p.ImportPath) || slices.Contains(q.XTestImports, p.ImportPath) {
				p.tests = append(p.tests, q)
			}
		}
	}
	return pkgs, nil
}

func paths(pkgs []*pkg) []string {
	var s []string
	for _, p := range pkgs {
		s = append(s, p.ImportPath)
	}
	return s
}

var swaps = map[token.Token]token.Token{
	token.LSS: token.LEQ, token.LEQ: token.LSS,
	token.GTR: token.GEQ, token.GEQ: token.GTR,
	token.EQL: token.NEQ, token.NEQ: token.EQL,
	token.LAND: token.LOR, token.LOR: token.LAND,
	token.ADD: token.SUB, token.SUB: token.ADD,
}

// enumerate parses p's files and lists every mutant, in file order.
func (p *pkg) enumerate() error {
	for _, name := range p.GoFiles {
		file := filepath.Join(p.Dir, name)
		src, err := os.ReadFile(file)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, src, 0)
		if err != nil {
			return err
		}
		off := func(pos token.Pos) int { return fset.Position(pos).Offset }
		text := func(n ast.Node) string { return string(src[off(n.Pos()):off(n.End())]) }
		var fn string
		// add records a mutant replacing src[start:end] with repl; orig is
		// the node it stands for in the output.
		add := func(at token.Pos, op string, start, end int, repl, orig string) {
			if len(orig) > 60 {
				orig = orig[:60]
			}
			p.mutants = append(p.mutants, &mutant{pkg: p, file: file, pos: fset.Position(at), fn: fn,
				op: op, orig: orig, start: start, end: end, repl: repl, src: src})
		}
		drop := func(s ast.Stmt, op string) { add(s.Pos(), op, off(s.Pos()), off(s.End()), "", text(s)) }
		posts := map[ast.Stmt]bool{}
		returnEarly := func(ft *ast.FuncType, body *ast.BlockStmt) {
			if body == nil || len(body.List) == 0 {
				return
			}
			ret := "return;"
			if ft.Results != nil && len(ft.Results.List) > 0 && len(ft.Results.List[0].Names) == 0 {
				var zeros []string
				for _, r := range ft.Results.List {
					zeros = append(zeros, "*new("+text(r.Type)+")")
				}
				ret = "return " + strings.Join(zeros, ", ") + ";"
			}
			at := off(body.Lbrace) + 1
			add(body.List[0].Pos(), "return early", at, at, ret, ret)
		}
		for _, d := range f.Decls {
			fn = ""
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					fn = "(" + text(fd.Recv.List[0].Type) + ")." + fn
				}
				returnEarly(fd.Type, fd.Body)
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					returnEarly(n.Type, n.Body)
				case *ast.IfStmt:
					add(n.Cond.Pos(), "negate", off(n.Cond.Pos()), off(n.Cond.End()), "!("+text(n.Cond)+")", text(n.Cond))
				case *ast.ForStmt:
					if n.Cond != nil {
						add(n.Cond.Pos(), "negate", off(n.Cond.Pos()), off(n.Cond.End()), "!("+text(n.Cond)+")", text(n.Cond))
					}
					if n.Post != nil {
						posts[n.Post] = true
					}
				case *ast.BinaryExpr:
					if to, ok := swaps[n.Op]; ok {
						at := off(n.OpPos)
						add(n.OpPos, n.Op.String()+" to "+to.String(), at, at+len(n.Op.String()), to.String(), text(n))
					}
				case *ast.ExprStmt:
					if _, ok := n.X.(*ast.CallExpr); ok {
						drop(n, "drop call")
					}
				case *ast.IncDecStmt:
					if !posts[n] {
						drop(n, "drop "+n.Tok.String())
					}
				case *ast.AssignStmt:
					if (n.Tok == token.ADD_ASSIGN || n.Tok == token.SUB_ASSIGN) && !posts[n] {
						drop(n, "drop "+n.Tok.String())
					}
				case *ast.BasicLit:
					if n.Kind == token.INT && constant.Sign(constant.MakeFromLiteral(n.Value, n.Kind, 0)) != 0 {
						add(n.Pos(), "zero", off(n.Pos()), off(n.End()), "0", n.Value)
					}
				}
				return true
			})
		}
	}
	return nil
}

// test runs m's tests under an overlay written in dir and reports what
// killed it.
func (m *mutant) test(dir, cwd string) record {
	rel, err := filepath.Rel(cwd, m.pos.Filename)
	if err != nil {
		rel = m.pos.Filename
	}
	r := record{Pos: fmt.Sprintf("%s:%d:%d", rel, m.pos.Line, m.pos.Column), Func: m.fn, Op: m.op, Orig: m.orig, Status: "survived"}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		panic(err)
	}
	mutated := filepath.Join(dir, filepath.Base(m.file))
	src := slices.Concat(m.src[:m.start], []byte(m.repl), m.src[m.end:])
	overlay := filepath.Join(dir, "overlay.json")
	ov, _ := json.Marshal(map[string]map[string]string{"Replace": {m.file: mutated}})
	if err := os.WriteFile(mutated, src, 0o644); err != nil {
		panic(err)
	}
	if err := os.WriteFile(overlay, ov, 0o644); err != nil {
		panic(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), mutantBudget)
	defer cancel()
	killers := map[string]bool{}
	done := map[string][]string{} // per package: the tests credited or passed
	outs, err := goTest(ctx, overlay, paths(m.pkg.tests))
	for _, q := range m.pkg.tests {
		if err != nil {
			break
		}
		o := outs[q.ImportPath]
		bin := ""
		for o != nil {
			path := q.ImportPath
			if o.timedOut {
				r.Status = "timeout"
			} else if len(o.failed) > 0 && r.Status == "survived" {
				r.Status = "killed"
			}
			for _, t := range o.failed {
				killers[path+":"+t] = true
			}
			done[path] = append(done[path], o.failed...)
			done[path] = append(done[path], o.passed...)
			if !o.crashed || len(o.failed) == 0 {
				break
			}
			// The binary died with tests unrun: run them again, without
			// the go command's rebuild, until one run finishes.
			if bin == "" {
				bin = filepath.Join(dir, "pkg.test")
				if err = goBuildTest(ctx, overlay, path, bin); err != nil {
					break
				}
			}
			o, err = rerun(ctx, bin, q, done[path])
		}
	}
	switch {
	case errors.Is(err, errBuild):
		r.discarded = true
		return r
	case err != nil: // the budget ran out
		r.Status, r.Partial = "timeout", true
	}
	for k := range killers {
		r.Tests = append(r.Tests, k)
	}
	sort.Strings(r.Tests)
	return r
}

var errBuild = errors.New("build failed")

// outcome is one package's part of a go test run.
type outcome struct {
	failed   []string // top-level tests that failed, or were running when the binary died
	passed   []string
	crashed  bool // the binary died (panic or timeout) before every test ran
	timedOut bool
}

// goTest runs the tests of paths and returns each package's outcome.
func goTest(ctx context.Context, overlay string, paths []string) (map[string]*outcome, error) {
	args := []string{"test", "-json", "-count=1", "-vet=off", "-timeout=" + runTimeout.String()}
	if overlay != "" {
		args = append(args, "-overlay="+overlay)
	}
	return parse(ctx, exec.CommandContext(ctx, "go", append(args, paths...)...), paths)
}

// goBuildTest links path's test binary, with the overlay, to bin.
func goBuildTest(ctx context.Context, overlay, path, bin string) error {
	cmd := exec.CommandContext(ctx, "go", "test", "-c", "-vet=off", "-overlay="+overlay, "-o", bin, path)
	if out, err := cmd.CombinedOutput(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("go test -c %s: %v\n%s", path, err, out)
	}
	return nil
}

// rerun runs q's test binary bin again, skipping the named top-level tests.
func rerun(ctx context.Context, bin string, q *pkg, skip []string) (*outcome, error) {
	quoted := make([]string, 0, len(skip))
	for _, s := range skip {
		quoted = append(quoted, regexp.QuoteMeta(s))
	}
	cmd := exec.CommandContext(ctx, "go", "tool", "test2json", "-p", q.ImportPath, bin, "-test.v=test2json",
		"-test.count=1", "-test.timeout="+runTimeout.String(), "-test.skip=^("+strings.Join(quoted, "|")+")$")
	cmd.Dir = q.Dir
	outs, err := parse(ctx, cmd, []string{q.ImportPath})
	if err != nil {
		return nil, err
	}
	return outs[q.ImportPath], nil
}

// parse runs cmd, a go test -json or test2json command over paths, and
// returns each package's outcome. A package that fails with no test to
// blame (an init or TestMain failure) is credited to "(package)".
func parse(ctx context.Context, cmd *exec.Cmd, paths []string) (map[string]*outcome, error) {
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	type event struct {
		Action, Package, Test, Output, FailedBuild string
	}
	type pkgState struct {
		outcome
		state     map[string]string // top-level test -> last action
		order     []string
		pkgFailed bool // the package as a whole failed
	}
	pkgs := map[string]*pkgState{}
	build := false
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e event
		if json.Unmarshal(sc.Bytes(), &e) != nil {
			continue
		}
		if e.FailedBuild != "" || e.Action == "build-fail" {
			build = true
		}
		p := pkgs[e.Package]
		if p == nil {
			p = &pkgState{state: map[string]string{}}
			pkgs[e.Package] = p
		}
		if strings.HasPrefix(e.Output, "panic: ") || strings.HasPrefix(e.Output, "fatal error: ") {
			p.crashed = true
			p.timedOut = p.timedOut || strings.HasPrefix(e.Output, "panic: test timed out after")
		}
		if e.Test == "" {
			p.pkgFailed = p.pkgFailed || e.Action == "fail"
			continue
		}
		top, _, sub := strings.Cut(e.Test, "/")
		if _, seen := p.state[top]; !seen {
			p.order = append(p.order, top)
		}
		switch e.Action {
		case "fail":
			p.state[top] = "fail"
		case "run", "cont", "pause", "pass", "skip":
			if !sub && p.state[top] != "fail" {
				p.state[top] = e.Action
			}
		}
	}
	werr := cmd.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if build {
		return nil, errBuild
	}
	outs := map[string]*outcome{}
	for _, path := range paths {
		p := pkgs[path]
		if p == nil {
			if werr != nil {
				return nil, errBuild
			}
			continue
		}
		for _, t := range p.order {
			switch p.state[t] {
			case "fail":
				p.failed = append(p.failed, t)
			case "run", "cont":
				p.failed = append(p.failed, t)
				p.crashed = true
			case "pass", "skip":
				p.passed = append(p.passed, t)
			}
		}
		if p.pkgFailed && len(p.failed) == 0 {
			if len(p.order) == 0 && strings.Contains(stderr.String(), "build failed") {
				return nil, errBuild
			}
			p.failed = []string{"(package)"}
		}
		outs[path] = &p.outcome
	}
	return outs, nil
}
