package render

import (
	"strings"
	"testing"

	"cdb/internal/geometry"
	"cdb/internal/hurricane"
	"cdb/internal/spatial"
)

func demoLayer() *spatial.Layer {
	l := spatial.NewLayer("demo")
	l.MustAdd(spatial.Feature{ID: "park", Geom: spatial.RegionGeom(geometry.RectPoly(0, 0, 10, 10))})
	l.MustAdd(spatial.Feature{ID: "road", Geom: spatial.LineGeom(geometry.MustPolyline(
		geometry.Pt(-5, 5), geometry.Pt(15, 5)))})
	l.MustAdd(spatial.Feature{ID: "well", Geom: spatial.PointGeom(geometry.Pt(3, 3))})
	return l
}

func TestLayerSVG(t *testing.T) {
	svg, err := Layer(demoLayer(), Options{Width: 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"<svg", "</svg>", "<polygon", "<polyline", "<circle",
		">park<", ">road<", ">well<", `width="300"`,
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// Labels off.
	svg2, err := Layer(demoLayer(), Options{NoLabels: true})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(svg2, "<text") {
		t.Error("labels drawn with NoLabels")
	}
	// Empty layer errors.
	if _, err := Layer(spatial.NewLayer("empty"), Options{}); err != nil {
		if !strings.Contains(err.Error(), "nothing to draw") {
			t.Errorf("unexpected error %v", err)
		}
	} else {
		t.Error("empty layer rendered")
	}
}

func TestRelationSVGReverseConversion(t *testing.T) {
	// Render the hurricane case study straight from its constraint
	// representation — the full §6 display pipeline.
	d := hurricane.Build()
	land, _ := d.Get("Land")
	svg, err := Relation(land, "landId", "x", "y", Options{Width: 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{">A<", ">B<", ">C<", "<polygon"} {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// The track relation renders its segments as degenerate regions or
	// lines.
	track, _ := d.Get("Track")
	svg2, err := Relation(track, "segId", "x", "y", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg2, "<polyline") && !strings.Contains(svg2, "<polygon") {
		t.Errorf("track rendered nothing:\n%s", svg2)
	}
	// Unsuitable relations error cleanly.
	owners, _ := d.Get("Landownership")
	if _, err := Relation(owners, "name", "x", "y", Options{}); err == nil {
		t.Error("non-spatial relation rendered")
	}
}

func TestEscape(t *testing.T) {
	l := spatial.NewLayer("x")
	l.MustAdd(spatial.Feature{ID: `a<b>&"c"`, Geom: spatial.PointGeom(geometry.Pt(0, 0))})
	svg, err := Layer(l, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(svg, `a<b>`) {
		t.Error("unescaped markup in output")
	}
	if !strings.Contains(svg, "a&lt;b&gt;&amp;&quot;c&quot;") {
		t.Errorf("escape wrong:\n%s", svg)
	}
}
