package banking

import (
	"testing"

	"rhythm/internal/backend"
	"rhythm/internal/httpx"
	"rhythm/internal/session"
)

var bank = NewWorkload()

func benchRig(b *testing.B) (*backend.DB, *session.Array, *Generator) {
	b.Helper()
	db := backend.New()
	sessions := session.NewArray(1024, 64)
	gen := NewGenerator(11, sessions)
	gen.Populate(512)
	return db, sessions, gen
}

// BenchmarkHostExecute measures the host (CPU baseline) execution path
// for the heaviest-mix request type.
func BenchmarkHostExecute(b *testing.B) {
	db, sessions, gen := benchRig(b)
	raw := gen.Request(AccountSummary)
	req, err := httpx.Parse(raw)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := bank.Execute(int(AccountSummary), &req, sessions, db, true)
		if ctx.Err != "" {
			b.Fatal(ctx.Err)
		}
	}
}

// BenchmarkRender measures fixed-size response assembly.
func BenchmarkRender(b *testing.B) {
	db, sessions, gen := benchRig(b)
	req, _ := httpx.Parse(gen.Request(AccountSummary))
	ctx := bank.Execute(int(AccountSummary), &req, sessions, db, true)
	buf := make([]byte, ctx.Def.BufferBytes)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx.Render(buf)
	}
}

// BenchmarkValidate measures the SPECWeb-style validator.
func BenchmarkValidate(b *testing.B) {
	db, sessions, gen := benchRig(b)
	req, _ := httpx.Parse(gen.Request(Profile))
	ctx := bank.Execute(int(Profile), &req, sessions, db, true)
	resp := ctx.RenderAlloc()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Validate(Profile, resp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerator measures request synthesis (§5.3.1 input generation).
func BenchmarkGenerator(b *testing.B) {
	_, _, gen := benchRig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Mixed()
	}
}
