package faultmem

import "testing"

func TestFacadeDatasets(t *testing.T) {
	wine := WineDataset(1)
	if wine.Samples() != 1599 || wine.Features() != 11 {
		t.Errorf("wine %dx%d", wine.Samples(), wine.Features())
	}
	mad := MadelonDataset(1)
	if mad.Samples() != 2000 || mad.Features() != 100 {
		t.Errorf("madelon %dx%d", mad.Samples(), mad.Features())
	}
	har := HARDataset(1)
	if har.Samples() != 1500 || har.Features() != 15 {
		t.Errorf("har %dx%d", har.Samples(), har.Features())
	}
	if ActivityName(0) == "unknown" {
		t.Error("activity 0 unnamed")
	}
}

func TestFacadeModelsTrainOnCleanData(t *testing.T) {
	wine := WineDataset(2)
	train, test := wine.Split(0.8, 2)
	en := NewElasticNet()
	if err := en.Fit(train.X, train.Y); err != nil {
		t.Fatal(err)
	}
	if r2 := en.Score(test.X, test.Y); r2 < 0.15 {
		t.Errorf("wine R² = %.3f", r2)
	}

	har := HARDataset(2)
	htrain, htest := har.Split(0.8, 2)
	knn := NewKNN(5)
	if err := knn.Fit(htrain.X, htrain.Y); err != nil {
		t.Fatal(err)
	}
	if acc := knn.Score(htest.X, htest.Y); acc < 0.75 {
		t.Errorf("HAR accuracy = %.3f", acc)
	}

	pca := NewPCA(10)
	if err := pca.Fit(htrain.X); err != nil {
		t.Fatal(err)
	}
	if ev := pca.ExplainedVarianceOn(htest.X); ev <= 0 || ev > 1 {
		t.Errorf("explained variance = %.3f", ev)
	}
}

func TestFacadeRoundTripHelpers(t *testing.T) {
	m := NewPerfectMemory(16)
	vals := []float64{1.5, -2.25, 1000}
	got := RoundTripValues(m, vals)
	for i, v := range vals {
		if got[i] != v {
			t.Errorf("value %d: %g != %g", i, got[i], v)
		}
	}
	if empty := RoundTripValues(m, []float64{}); empty == nil || len(empty) != 0 {
		t.Errorf("empty round trip = %#v, want an empty slice", empty)
	}
	codec := DefaultCodec()
	if codec.Decode(codec.Encode(3.75)) != 3.75 {
		t.Error("codec round trip failed")
	}
	if R2([]float64{1, 2}, []float64{1, 2}) != 1 || Accuracy([]float64{1}, []float64{1}) != 1 {
		t.Error("metric helpers wrong")
	}
}
