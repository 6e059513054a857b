module cdb

go 1.24
