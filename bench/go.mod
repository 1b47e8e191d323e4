module robuststore/bench

go 1.24

require robuststore v0.0.0

replace robuststore => ../
