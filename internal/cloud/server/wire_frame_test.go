package server

import (
	"image"
	"math/rand"
	"reflect"
	"testing"
)

// TestFromImageMatchesGeneric pins the direct *image.RGBA conversion to
// the generic color-model path, bit for bit: on a sub-image (so Stride
// and Bounds().Min both matter) holding every byte value, and on an
// image type that takes the generic path.
func TestFromImageMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	whole := image.NewRGBA(image.Rect(-3, 2, 37, 30))
	rng.Read(whole.Pix)
	for v := 0; v < 256; v++ {
		whole.Pix[4*v] = uint8(v)
		whole.Pix[4*v+1] = uint8(255 - v)
	}
	sub := whole.SubImage(image.Rect(1, 5, 30, 27)).(*image.RGBA)
	if sub.Stride == 4*sub.Bounds().Dx() || sub.Bounds().Min == (image.Point{}) {
		t.Fatal("sub-image does not exercise Stride and Bounds().Min")
	}
	nrgba := image.NewNRGBA(image.Rect(2, 1, 19, 12))
	rng.Read(nrgba.Pix)
	for name, src := range map[string]image.Image{"RGBA": whole, "RGBA sub-image": sub, "NRGBA": nrgba} {
		got, want := fromImage(src), fromImageGeneric(src)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: direct conversion differs from the generic path", name)
		}
	}
}
