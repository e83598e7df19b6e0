package banking

import (
	"bytes"
	"strconv"
	"testing"

	"rhythm/internal/httpx"
)

func TestImageResponseWellFormed(t *testing.T) {
	for name, size := range imageSpecs {
		path := ImagePathPrefix + name
		resp, ok := ImageResponse(path)
		if !ok {
			t.Fatalf("asset %s missing", name)
		}
		status, hdrs, body, err := httpx.ParseResponse(resp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if status != 200 {
			t.Fatalf("%s: status %d", name, status)
		}
		if hdrs["Content-Type"] != "image/gif" {
			t.Fatalf("%s: content type %q", name, hdrs["Content-Type"])
		}
		if !bytes.HasPrefix(body, []byte("GIF89a")) {
			t.Fatalf("%s: not a GIF", name)
		}
		if body[len(body)-1] != 0x3B {
			t.Fatalf("%s: missing GIF trailer", name)
		}
		if len(body) != size {
			t.Fatalf("%s: body %d bytes, spec %d", name, len(body), size)
		}
	}
}

func TestImageResponseCached(t *testing.T) {
	a, _ := ImageResponse(ImagePathPrefix + "banner.gif")
	b, _ := ImageResponse(ImagePathPrefix + "banner.gif")
	if &a[0] != &b[0] {
		t.Fatal("repeated asset requests should hit the cache")
	}
}

func TestImageResponseUnknown(t *testing.T) {
	if _, ok := ImageResponse(ImagePathPrefix + "nope.gif"); ok {
		t.Fatal("unknown asset served")
	}
	if IsImagePath("/login.php") {
		t.Fatal("login is not an image")
	}
	if !IsImagePath(ImagePathPrefix + "x.gif") {
		t.Fatal("image path not recognized")
	}
}

// imageRequest builds a GET for the i-th asset.
func imageRequest(i int) []byte {
	names := []string{"banner.gif", "nav_home.gif", "nav_bills.gif", "nav_xfer.gif",
		"chart_q1.gif", "chart_q2.gif", "lock_icon.gif", "footer.gif", "promo_cd.gif", "promo_loan.gif"}
	name := names[i%len(names)]
	return []byte("GET " + ImagePathPrefix + name + " HTTP/1.1\r\nHost: bank\r\nReferer: /account_summary.php?v=" + strconv.Itoa(i) + "\r\n\r\n")
}

func TestImageRequestParses(t *testing.T) {
	for i := 0; i < 12; i++ {
		raw := imageRequest(i)
		if len(raw) > RequestSlot {
			t.Fatalf("image request %d bytes", len(raw))
		}
		req, err := httpx.Parse(raw)
		if err != nil {
			t.Fatal(err)
		}
		if !IsImagePath(req.Path) {
			t.Fatalf("path %q", req.Path)
		}
		if _, ok := ImageResponse(req.Path); !ok {
			t.Fatalf("generated request for unknown asset %q", req.Path)
		}
	}
}
