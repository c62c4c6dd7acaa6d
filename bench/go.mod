module ps3/bench

go 1.24

require ps3 v0.0.0

replace ps3 => ../
