module github.com/datampi/datampi-go/bench

go 1.24

require github.com/datampi/datampi-go v0.0.0

replace github.com/datampi/datampi-go => ../
