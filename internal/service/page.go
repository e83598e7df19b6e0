package service

import (
	"strings"
	"unsafe"

	"rhythm/internal/fmtx"
)

// Piece is one fragment of a generated response body: the host renderer
// concatenates pieces, the device kernel stores the rendered buffer
// with strided column stores. Static pieces are template content (cheap
// per byte in the cost model); dynamic pieces are backend-derived.
type Piece struct {
	// Data is a string so appending template or backend-derived text
	// never copies: the piece aliases the source bytes.
	Data   string
	Static bool
}

// Costs is a workload's structural instruction cost model: the charges
// host and device programs accrue.
type Costs struct {
	// Fixed covers request parsing, session work, and control overhead
	// common to every request.
	Fixed int64
	// StaticByte prices emitting template content, DynByte formatting
	// backend-derived content.
	StaticByte int64
	DynByte    int64
	// Backend covers marshaling one backend round trip.
	Backend int64
}

// DefaultCosts is banking's model, a reasonable prior for any
// page-shaped workload. The absolute scale is calibrated once against
// Table 2's Pin-measured counts (DESIGN.md §6); the per-type variation
// then follows from each page's actual static/dynamic composition.
func DefaultCosts() Costs {
	return Costs{Fixed: 20000, StaticByte: 15, DynByte: 70, Backend: 20000}
}

func (c *Costs) fill() {
	d := DefaultCosts()
	if c.Fixed <= 0 {
		c.Fixed = d.Fixed
	}
	if c.StaticByte <= 0 {
		c.StaticByte = d.StaticByte
	}
	if c.DynByte <= 0 {
		c.DynByte = d.DynByte
	}
	if c.Backend <= 0 {
		c.Backend = d.Backend
	}
}

// PageBuilder accumulates a response body as pieces, charging the
// workload's cost model and recording a basic-block trace for the
// similarity study (Fig 2). Alignment padding keeps every lane of a
// cohort at the same body offset after variable-length dynamic content
// (§4.3.2).
type PageBuilder struct {
	pieces  []Piece
	bodyLen int
	instr   int64
	costs   Costs
	blocks  []uint32
	// padding enables the §4.3.2 whitespace alignment. When disabled
	// (ablation), PadTo is a no-op and lanes' offsets diverge.
	padding bool
	// misaligned counts PadTo targets that had already been passed — a
	// mis-sized section budget.
	misaligned int
	// marks records the body offset after each PadTo call. With padding
	// on and fixed section budgets, marks are identical for every
	// request of a type (the cohort alignment invariant); with padding
	// off they drift apart, which is what ruins coalescing in the
	// ablation.
	marks []int
	// lastBlock is the most recent explicit basic block, labelling the
	// emission blocks of the fragments that follow it.
	lastBlock uint32
	// arena holds what Appendf and Sprintf have formatted since Reset.
	// It only ever grows by append: text already handed out is never
	// written again — a full arena is replaced by a larger copy and the
	// old one lives on under the pieces that alias it — until Reset
	// rewinds it for the next request.
	arena []byte
}

// Reset clears the builder for reuse, keeping slice capacity and
// settings so a pooled builder builds its next page without
// reallocating. Everything Appendf and Sprintf returned is void.
func (b *PageBuilder) Reset() {
	b.discard()
	b.arena = b.arena[:0]
}

// discard drops the page built so far and keeps the arena: what the
// request formatted before it failed (its cookie, its error text) stays
// valid for the error page.
func (b *PageBuilder) discard() {
	b.pieces = b.pieces[:0]
	b.bodyLen = 0
	b.instr = 0
	b.blocks = b.blocks[:0]
	b.misaligned = 0
	b.marks = b.marks[:0]
	b.lastBlock = 0
}

// Static appends template content.
func (b *PageBuilder) Static(s string) {
	b.pieces = append(b.pieces, Piece{Data: s, Static: true})
	b.bodyLen += len(s)
	b.instr += int64(len(s)) * b.costs.StaticByte
	b.emitBlocks(len(s))
}

// Dynamic appends backend-derived content.
func (b *PageBuilder) Dynamic(s string) {
	b.pieces = append(b.pieces, Piece{Data: s})
	b.bodyLen += len(s)
	b.instr += int64(len(s)) * b.costs.DynByte
	b.emitBlocks(len(s))
}

// Dynamicf appends formatted backend-derived content.
func (b *PageBuilder) Dynamicf(format string, args ...any) {
	b.Dynamic(b.Sprintf(format, args...))
}

// Appendf formats (fmtx.Appendf: %d %x %s %% with '-', '0' and a
// width) into the builder's arena and returns the formatted bytes,
// valid until Reset: what a stage function returns as its backend
// request, without allocating.
func (b *PageBuilder) Appendf(format string, args ...any) []byte {
	n := len(b.arena)
	b.arena = fmtx.Appendf(b.arena, format, args...)
	return b.arena[n:len(b.arena):len(b.arena)]
}

// Sprintf is Appendf as a string: text for Dynamic or a later Dynamicf,
// or to carry from one stage to the next, valid until Reset.
func (b *PageBuilder) Sprintf(format string, args ...any) string {
	return b.kept(len(b.arena), fmtx.Appendf(b.arena, format, args...))
}

// Keep copies p into the arena and returns the copy as a string, valid
// until Reset: the one copy a stage makes of a backend response, whose
// buffer — the Scratch's, refilled by its next round trip, or the
// lane's slot, refilled by the next commit — does not outlive the stage
// call, while
// the lines cut from it become pieces of the page or state carried to
// the next stage.
func (b *PageBuilder) Keep(p []byte) string {
	return b.kept(len(b.arena), append(b.arena, p...))
}

// kept installs arena, grown from n bytes, and returns what was appended
// as a string. The arena is append-only between Resets, so the bytes
// behind it are as immutable as a string's for as long as it may be used.
func (b *PageBuilder) kept(n int, arena []byte) string {
	b.arena = arena
	return unsafe.String(unsafe.SliceData(arena[n:]), len(arena)-n)
}

// Lines is backend payload text, iterated line by line without cutting
// it into a slice: "" holds no lines, and any other text holds one more
// line than it has '\n's.
type Lines string

// Next cuts the first line off l, which must not be empty.
func (l *Lines) Next() string {
	line, rest, _ := strings.Cut(string(*l), "\n")
	*l = Lines(rest)
	return line
}

// Split stores the first len(dst) sep-separated fields of s in dst and
// returns how many fields s has, which may be more than it stored: a
// fixed-width backend row cut without allocating. Unlike strings.Split,
// it finds no field in "".
func Split(dst []string, s string, sep byte) int {
	if s == "" {
		return 0
	}
	n := 0
	for {
		i := strings.IndexByte(s, sep)
		if i < 0 {
			i = len(s)
		}
		if n < len(dst) {
			dst[n] = s[:i]
		}
		n++
		if i == len(s) {
			return n
		}
		s = s[i+1:]
	}
}

// emitChunk is the bytes-per-basic-block granularity of the emission
// loops: a fragment of n bytes contributes ~n/emitChunk dynamic basic
// blocks to the trace, the way a real copy/format loop does in a Pin
// trace. This keeps loop-trip divergence proportional to its true share
// of the executed blocks (Fig 2).
const emitChunk = 256

func (b *PageBuilder) emitBlocks(n int) {
	const marker = 0x8000_0000
	for ; n > 0; n -= emitChunk {
		b.blocks = append(b.blocks, marker|b.lastBlock)
	}
}

// PadTo pads the body with spaces to offset n (rounded up to a word
// boundary, so the cohort's interleaved stores stay on 4-byte-word
// lanes), realigning every lane after a variable-length dynamic section
// (§4.3.2 "Whitespace Padding in HTML Content"). Already being past n
// is tolerated (recorded in Misaligned) because response correctness
// never depends on alignment — only coalescing does.
func (b *PageBuilder) PadTo(n int) {
	defer func() { b.marks = append(b.marks, b.bodyLen) }()
	if !b.padding {
		return
	}
	n = (n + 3) &^ 3
	if b.bodyLen > n {
		b.misaligned++
		return
	}
	if b.bodyLen == n {
		return
	}
	pad := n - b.bodyLen
	b.pieces = append(b.pieces, Piece{Data: spaces(pad), Static: true})
	b.bodyLen += pad
	b.instr += int64(pad) * b.costs.StaticByte
}

// Filler is a paragraph of fixed template prose prepared for FillWith:
// repeated once, at start-up, into a bank of whole paragraphs, so a
// page's filler is a few slices of it and not a string built per
// request.
type Filler struct {
	para int // the paragraph's length
	bank string
}

// NewFiller prepares para, which must not be empty.
func NewFiller(para string) Filler {
	return Filler{para: len(para), bank: strings.Repeat(para, 1+fillerBank/len(para))}
}

// fillerBank is the least a Filler's bank holds: a 64 KB page's filler
// is eight pieces of it.
const fillerBank = 8 << 10

var defaultFiller = NewFiller(fillerPara)

// FillTo emits deterministic filler template prose until the body
// reaches offset n.
func (b *PageBuilder) FillTo(n int) { b.FillWith(defaultFiller, n) }

// FillWith is FillTo with the workload's own prose: the paragraph
// repeated, the last copy truncated inside an HTML comment (or to spaces
// when fewer than 9 bytes remain) so the markup stays well-formed. The
// content is fixed template text — "static" in the cost model and
// identical across requests of a type — so it is emitted as pieces that
// alias the filler and the fill banks, and charged once, as the single
// fragment it is.
func (b *PageBuilder) FillWith(f Filler, n int) {
	n -= b.bodyLen
	if n <= 0 {
		return
	}
	tail := n % f.para
	b.repeat(f.bank, n-tail)
	if tail >= 9 {
		b.repeat("<!--", 4)
		b.repeat(dotsBank, tail-7)
		b.repeat("-->", 3)
	} else {
		b.repeat(spacesBank, tail)
	}
	b.bodyLen += n
	b.instr += int64(n) * b.costs.StaticByte
	b.emitBlocks(n)
}

// repeat appends n bytes of bank, over and over if n is more than it
// holds, as uncharged static pieces.
func (b *PageBuilder) repeat(bank string, n int) {
	for ; n > 0; n -= min(n, len(bank)) {
		b.pieces = append(b.pieces, Piece{Data: bank[:min(n, len(bank))], Static: true})
	}
}

// Block records the execution of basic block id in the page trace.
func (b *PageBuilder) Block(id uint32) {
	b.blocks = append(b.blocks, id)
	b.lastBlock = id
}

// LastBlock reports the current emission-label block.
func (b *PageBuilder) LastBlock() uint32 { return b.lastBlock }

// Reconverge restores the emission label after a data-dependent branch:
// code following the reconvergence point has the same block addresses on
// every path, so its emission blocks must be labeled identically.
func (b *PageBuilder) Reconverge(id uint32) { b.lastBlock = id }

// Len reports accumulated body bytes.
func (b *PageBuilder) Len() int { return b.bodyLen }

// Instr reports instructions charged for body generation.
func (b *PageBuilder) Instr() int64 { return b.instr }

// Pieces returns the accumulated fragments.
func (b *PageBuilder) Pieces() []Piece { return b.pieces }

// Marks returns the body offsets observed at each PadTo call.
func (b *PageBuilder) Marks() []int { return b.marks }

// Misaligned reports how many PadTo targets were overshot.
func (b *PageBuilder) Misaligned() int { return b.misaligned }

// Blocks returns the recorded basic-block trace.
func (b *PageBuilder) Blocks() []uint32 { return b.blocks }

// spacesBank backs spaces(): pads are bounded by the 64 KB max response
// buffer, so PadTo slices it instead of allocating. dotsBank fills the
// comment that ends a FillWith.
var (
	spacesBank = strings.Repeat(" ", 1<<16)
	dotsBank   = strings.Repeat(".", 1<<10)
)

func spaces(n int) string {
	if n <= len(spacesBank) {
		return spacesBank[:n]
	}
	return strings.Repeat(" ", n)
}

const fillerPara = "<p class=\"fine\">Offers subject to change. Availability and delivery " +
	"estimates are computed at order time and may vary by region. Streamed device " +
	"telemetry is retained per the published data policy; see your account " +
	"settings for export options. Catalog descriptions are provided by the " +
	"merchant of record. Do not share your access credentials; support staff " +
	"will never request your password. All prices are shown before tax.</p>\n"
