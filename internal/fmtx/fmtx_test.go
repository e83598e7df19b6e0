package fmtx

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// verbRE matches one supported verb; anything else after a '%' is
// outside Appendf's set.
var verbRE = regexp.MustCompile(`%(%|[-0]*[0-9]{0,3}[dxs])`)

// supported reports whether every '%' of format starts a supported verb.
func supported(format string) bool {
	return !strings.Contains(verbRE.ReplaceAllString(format, ""), "%")
}

// argsFor builds an argument list for format from the three fuzzed
// values: each %d and %x takes the next integer type in rotation — every
// width and sign, fed from i or u — and each %s the string.
func argsFor(format string, i int64, u uint64, s string) []any {
	ints := []any{int(i), int8(i), int16(i), int32(i), i, uint(u), uint8(u), uint16(u), uint32(u), u}
	var args []any
	for k, m := range verbRE.FindAllString(format, -1) {
		switch m[len(m)-1] {
		case 'd', 'x':
			args = append(args, ints[(k+int(u%10))%len(ints)])
		case 's':
			args = append(args, s)
		}
	}
	return args
}

// full is a table every slot of which holds another format, so a
// format run through it is parsed on every call, on the stack: the path
// a format the process-wide table cannot hold takes.
var full = func() *formatTable {
	t := new(formatTable)
	for i := range t {
		t[i].Store(&parsed{format: "\x00held elsewhere"})
	}
	return t
}()

// paths are the two ways Appendf runs a format.
var paths = []struct {
	name    string
	appendf func(dst []byte, format string, args ...any) []byte
}{
	{"table", Appendf},
	{"uncached", func(dst []byte, format string, args ...any) []byte { return full.appendf(dst, format, args) }},
}

// treeFormats returns every format literal the ported packages pass to
// Appendf or to the page builder's Appendf, Sprintf and Dynamicf.
func treeFormats(t testing.TB) []string {
	var formats []string
	for _, dir := range []string{"banking", "ecom", "telemetry", "backend", "service", "session"} {
		files, err := filepath.Glob(filepath.Join("..", dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources under internal/%s: %v", dir, err)
		}
		for _, file := range files {
			if strings.HasSuffix(file, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "fmt" {
					return true // what is left of fmt builds errors and panics
				}
				i := 0
				switch sel.Sel.Name {
				case "Sprintf", "Dynamicf":
				case "Appendf":
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "fmtx" {
						i = 1 // after dst
					}
				default:
					return true
				}
				if id, ok := call.Args[i].(*ast.Ident); ok && id.Name == "format" {
					return true // a wrapper passing its own format on
				}
				lit, ok := call.Args[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Errorf("%s: %s takes a format that is not a string literal", file, sel.Sel.Name)
					return true
				}
				format, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				formats = append(formats, format)
				return true
			})
		}
	}
	if len(formats) < 40 {
		t.Fatalf("found only %d format literals; the walk has lost its call sites", len(formats))
	}
	return formats
}

// TestTreeFormats: every format literal on the request path stays inside
// the supported set, so a new verb fails here and not as a panic in
// production; and each agrees with fmt on a sample argument list.
func TestTreeFormats(t *testing.T) {
	if _, err := os.Stat(filepath.Join("..", "banking")); err != nil {
		t.Skip("sources not available")
	}
	for _, format := range treeFormats(t) {
		if !supported(format) {
			t.Errorf("format %q uses a verb Appendf does not implement", format)
			continue
		}
		args := argsFor(format, -1234567, 0xfedcba9876543210, "a<b>&é")
		for _, p := range paths {
			if got, want := string(p.appendf(nil, format, args...)), fmt.Sprintf(format, args...); got != want {
				t.Errorf("%s: Appendf(%q) = %q, fmt gives %q", p.name, format, got, want)
			}
		}
	}
}

func TestAppendfAgainstFmt(t *testing.T) {
	cases := []struct {
		format string
		args   []any
	}{
		{"plain", nil},
		{"", nil},
		{"100%%", nil},
		{"%d|%d|%d", []any{0, int64(math.MinInt64), int64(math.MaxInt64)}},
		{"%d %d", []any{uint64(math.MaxUint64), uint8(255)}},
		{"%02d/%03d/%04d/%06d/%08d", []any{7, uint64(7), -7, int32(-123456), 123456789}},
		{"%08x %016x %x", []any{uint32(0xbeef), uint64(1) << 63, -255}},
		{"[%-10s][%10s][%-3s][%05s]", []any{"ab", "héllo", "toolong", "7"}},
		{"[%-10s][%s]", []any{"", "plain"}},
		{"%-6d|%6d|%-06d|", []any{-42, -42, 42}},
		{"%s", []any{"\xff\xfe"}},
		{"%%%d%%%-%%s", []any{5, "x"}},
		// More verbs than the uncached path parses at a time.
		{"%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d%%%s;", []any{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, "end"}},
		{"%d%d%d%d%d%d%d%d", []any{1, 2, 3, 4, 5, 6, 7, 8}},
	}
	for _, p := range paths {
		for _, c := range cases {
			if got, want := string(p.appendf([]byte("pre:"), c.format, c.args...)), "pre:"+fmt.Sprintf(c.format, c.args...); got != want {
				t.Errorf("%s: Appendf(%q, %v) = %q, fmt gives %q", p.name, c.format, c.args, got, want)
			}
		}
	}
}

// TestTableHoldsAFormat: a format's first use parses it into a free
// slot, and later uses find that parse.
func TestTableHoldsAFormat(t *testing.T) {
	var tab formatTable
	format := "<td>%s</td><td class=\"amount\">%08x</td>\n"
	if got, want := string(tab.appendf(nil, format, []any{"a", 255})), fmt.Sprintf(format, "a", 255); got != want {
		t.Fatalf("first use gives %q, fmt gives %q", got, want)
	}
	p := tab.lookup(format)
	if p == nil || p.format != format || len(p.ops) != 3 {
		t.Fatalf("after first use the table holds %+v", p)
	}
	if tab.lookup(format) != p {
		t.Fatal("a second lookup parsed the format again")
	}
	if full.lookup(format) != nil {
		t.Fatal("a table whose slots are taken claims to hold the format")
	}
}

// TestTableConcurrentFirstUse: host workers reach the table at once,
// first uses of one format included; each gets fmt's bytes, and the
// format ends up parsed in one slot.
func TestTableConcurrentFirstUse(t *testing.T) {
	var tab formatTable
	formats := []string{"%d|%s\n", "<td>%-10s</td>", "%08x-%d", "plain", "%s=%016x", "100%%"}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, format := range formats {
				args := argsFor(format, -42, 42, "s")
				if got, want := string(tab.appendf(nil, format, args)), fmt.Sprintf(format, args...); got != want {
					t.Errorf("Appendf(%q) = %q, fmt gives %q", format, got, want)
				}
			}
		}()
	}
	wg.Wait()
	held := 0
	for i := range tab {
		if tab[i].Load() != nil {
			held++
		}
	}
	if held != len(formats) {
		t.Fatalf("%d slots hold a parse of %d formats", held, len(formats))
	}
}

func TestAppendfPanicsOutsideItsSet(t *testing.T) {
	for _, c := range []struct {
		name, format string
		args         []any
	}{
		{"verb", "%v", []any{1}},
		{"precision", "%.2d", []any{1}},
		{"truncated", "%0", nil},
		{"missing arg", "%d %d", []any{1}},
		{"extra arg", "%d", []any{1, 2}},
		{"string for %d", "%d", []any{"1"}},
		{"int for %s", "%s", []any{1}},
		{"bytes for %s", "%s", []any{[]byte("b")}},
		{"stringer", "%s", []any{token.Pos(1)}},
	} {
		for _, p := range paths {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s: no panic", p.name, c.name)
					}
				}()
				p.appendf(nil, c.format, c.args...)
			}()
		}
	}
}

// TestAppendfDoesNotAllocate: into a buffer with room, with integer
// arguments above the runtime's small-value cache, a literal and every
// format of the tree after its first use, and the same formats where
// the table cannot hold them.
func TestAppendfDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 0, 4096)
	uid, cents, name := uint64(1)<<40, int64(-123456), "checking"
	allocs := testing.AllocsPerRun(100, func() {
		buf = Appendf(buf[:0], "%d|%s|%d|%08x\n", uid, name, cents, uint32(uid))
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per call", allocs)
	}
	if _, err := os.Stat(filepath.Join("..", "banking")); err != nil {
		t.Skip("sources not available")
	}
	for _, format := range treeFormats(t) {
		args := argsFor(format, 1<<40, 1<<40, name)
		for _, p := range paths {
			p.appendf(buf[:0], format, args...)
			if allocs := testing.AllocsPerRun(20, func() { buf = p.appendf(buf[:0], format, args...) }); allocs != 0 {
				t.Errorf("%s: Appendf(%q): %v allocations per call", p.name, format, allocs)
			}
		}
	}
}

// FuzzAppendf holds Appendf to fmt.Sprintf over the supported verb set,
// on the table's path and on the uncached one.
func FuzzAppendf(f *testing.F) {
	seeds := []string{"%d", "%x", "%s", "%%", "%-10s", "%08x", "%02d", "%03d", "%04d", "%06d", "%08d", "%016x", "%5d|%-5d|%05d", "%05s%-4s", "2009-%02d-%02d",
		// Shapes the request path once formatted, kept after its call sites
		// were folded into longer formats.
		"%04d-%08d", "%s\n", "%s\n%d\n", "%s\n%d\n%s\n", "%s\n%s\n%s\n", "%s\n%s\n%s\n%s\n%s\n", "%s|%s|%d\n"}
	if _, err := os.Stat(filepath.Join("..", "banking")); err == nil {
		seeds = append(seeds, treeFormats(f)...)
	}
	for _, format := range seeds {
		f.Add(format, int64(-1234567), uint64(0xfedcba9876543210), "a<b>&é")
		f.Add(format, int64(math.MinInt64), uint64(1)<<63, "")
		f.Add(format, int64(0), uint64(0), "\xff long enough to overflow any %-10s column")
	}
	f.Fuzz(func(t *testing.T, format string, i int64, u uint64, s string) {
		if !supported(format) {
			t.Skip()
		}
		args := argsFor(format, i, u, s)
		want := fmt.Sprintf(format, args...)
		for _, p := range paths {
			if got := string(p.appendf(nil, format, args...)); got != want {
				t.Fatalf("%s: Appendf(%q, %v) = %q, fmt gives %q", p.name, format, args, got, want)
			}
		}
	})
}
