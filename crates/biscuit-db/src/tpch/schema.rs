//! TPC-H table schemas (full standard column sets).
//!
//! Column indices are exposed as constants so query builders stay readable
//! and immune to off-by-one drift.

use crate::schema::Schema;
use crate::value::ColumnType::{Date, Float, Int, Str};

/// `region(r_regionkey, r_name, r_comment)`
pub(crate) fn region() -> Schema {
    Schema::new(&[("r_regionkey", Int), ("r_name", Str), ("r_comment", Str)])
}

/// `nation(n_nationkey, n_name, n_regionkey, n_comment)`
pub(crate) fn nation() -> Schema {
    Schema::new(&[
        ("n_nationkey", Int),
        ("n_name", Str),
        ("n_regionkey", Int),
        ("n_comment", Str),
    ])
}

/// `supplier(...)`
pub(crate) fn supplier() -> Schema {
    Schema::new(&[
        ("s_suppkey", Int),
        ("s_name", Str),
        ("s_address", Str),
        ("s_nationkey", Int),
        ("s_phone", Str),
        ("s_acctbal", Float),
        ("s_comment", Str),
    ])
}

/// `customer(...)`
pub(crate) fn customer() -> Schema {
    Schema::new(&[
        ("c_custkey", Int),
        ("c_name", Str),
        ("c_address", Str),
        ("c_nationkey", Int),
        ("c_phone", Str),
        ("c_acctbal", Float),
        ("c_mktsegment", Str),
        ("c_comment", Str),
    ])
}

/// `part(...)`
pub(crate) fn part() -> Schema {
    Schema::new(&[
        ("p_partkey", Int),
        ("p_name", Str),
        ("p_mfgr", Str),
        ("p_brand", Str),
        ("p_type", Str),
        ("p_size", Int),
        ("p_container", Str),
        ("p_retailprice", Float),
        ("p_comment", Str),
    ])
}

/// `partsupp(...)`
pub(crate) fn partsupp() -> Schema {
    Schema::new(&[
        ("ps_partkey", Int),
        ("ps_suppkey", Int),
        ("ps_availqty", Int),
        ("ps_supplycost", Float),
        ("ps_comment", Str),
    ])
}

/// `orders(...)`
pub(crate) fn orders() -> Schema {
    Schema::new(&[
        ("o_orderkey", Int),
        ("o_custkey", Int),
        ("o_orderstatus", Str),
        ("o_totalprice", Float),
        ("o_orderdate", Date),
        ("o_orderpriority", Str),
        ("o_clerk", Str),
        ("o_shippriority", Int),
        ("o_comment", Str),
    ])
}

/// `lineitem(...)`
pub fn lineitem() -> Schema {
    Schema::new(&[
        ("l_orderkey", Int),
        ("l_partkey", Int),
        ("l_suppkey", Int),
        ("l_linenumber", Int),
        ("l_quantity", Float),
        ("l_extendedprice", Float),
        ("l_discount", Float),
        ("l_tax", Float),
        ("l_returnflag", Str),
        ("l_linestatus", Str),
        ("l_shipdate", Date),
        ("l_commitdate", Date),
        ("l_receiptdate", Date),
        ("l_shipinstruct", Str),
        ("l_shipmode", Str),
        ("l_comment", Str),
    ])
}

/// Column index constants for the `lineitem` table.
#[allow(missing_docs)]
pub mod l {
    pub const ORDERKEY: usize = 0;
    pub const PARTKEY: usize = 1;
    pub(crate) const SUPPKEY: usize = 2;
    pub const LINENUMBER: usize = 3;
    pub const QUANTITY: usize = 4;
    pub const EXTENDEDPRICE: usize = 5;
    pub const DISCOUNT: usize = 6;
    pub(crate) const TAX: usize = 7;
    pub const RETURNFLAG: usize = 8;
    pub const LINESTATUS: usize = 9;
    pub const SHIPDATE: usize = 10;
    pub const COMMITDATE: usize = 11;
    pub const RECEIPTDATE: usize = 12;
    pub(crate) const SHIPINSTRUCT: usize = 13;
    pub(crate) const SHIPMODE: usize = 14;
    pub(crate) const WIDTH: usize = 16;
}

/// Column index constants for the `orders` table.
#[allow(missing_docs)]
pub mod o {
    pub const ORDERKEY: usize = 0;
    pub const CUSTKEY: usize = 1;
    pub(crate) const ORDERSTATUS: usize = 2;
    pub(crate) const TOTALPRICE: usize = 3;
    pub const ORDERDATE: usize = 4;
    pub const ORDERPRIORITY: usize = 5;
    pub(crate) const SHIPPRIORITY: usize = 7;
    pub const COMMENT: usize = 8;
    pub(crate) const WIDTH: usize = 9;
}

/// Column index constants for the `customer` table.
#[allow(missing_docs)]
pub mod c {
    pub(crate) const CUSTKEY: usize = 0;
    pub(crate) const NAME: usize = 1;
    pub(crate) const ADDRESS: usize = 2;
    pub(crate) const NATIONKEY: usize = 3;
    pub(crate) const PHONE: usize = 4;
    pub(crate) const ACCTBAL: usize = 5;
    pub(crate) const MKTSEGMENT: usize = 6;
    pub(crate) const WIDTH: usize = 8;
}

/// Column index constants for the `part` table.
#[allow(missing_docs)]
pub mod p {
    pub const PARTKEY: usize = 0;
    pub(crate) const NAME: usize = 1;
    pub(crate) const MFGR: usize = 2;
    pub(crate) const BRAND: usize = 3;
    pub const TYPE: usize = 4;
    pub(crate) const SIZE: usize = 5;
    pub(crate) const CONTAINER: usize = 6;
    pub(crate) const WIDTH: usize = 9;
}

/// Column index constants for the `partsupp` table.
#[allow(missing_docs)]
pub mod ps {
    pub(crate) const PARTKEY: usize = 0;
    pub(crate) const SUPPKEY: usize = 1;
    pub(crate) const AVAILQTY: usize = 2;
    pub(crate) const SUPPLYCOST: usize = 3;
    pub(crate) const WIDTH: usize = 5;
}

/// Column index constants for the `supplier` table.
#[allow(missing_docs)]
pub mod s {
    pub(crate) const SUPPKEY: usize = 0;
    pub(crate) const NAME: usize = 1;
    pub(crate) const ADDRESS: usize = 2;
    pub(crate) const NATIONKEY: usize = 3;
    pub(crate) const PHONE: usize = 4;
    pub(crate) const ACCTBAL: usize = 5;
    pub(crate) const WIDTH: usize = 7;
}

/// Column index constants for the `nation` table.
#[allow(missing_docs)]
pub mod n {
    pub(crate) const NATIONKEY: usize = 0;
    pub(crate) const NAME: usize = 1;
    pub(crate) const REGIONKEY: usize = 2;
    pub(crate) const WIDTH: usize = 4;
}

/// Column index constants for the `region` table.
#[allow(missing_docs)]
pub mod r {
    pub(crate) const REGIONKEY: usize = 0;
    pub(crate) const NAME: usize = 1;
    pub(crate) const WIDTH: usize = 3;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_constants_match_schemas() {
        assert_eq!(lineitem().len(), l::WIDTH);
        assert_eq!(lineitem().columns()[l::SHIPDATE].name, "l_shipdate");
        assert_eq!(orders().len(), o::WIDTH);
        assert_eq!(orders().columns()[o::ORDERDATE].name, "o_orderdate");
        assert_eq!(customer().len(), c::WIDTH);
        assert_eq!(customer().columns()[c::MKTSEGMENT].name, "c_mktsegment");
        assert_eq!(part().len(), p::WIDTH);
        assert_eq!(part().columns()[p::CONTAINER].name, "p_container");
        assert_eq!(partsupp().len(), ps::WIDTH);
        assert_eq!(supplier().len(), s::WIDTH);
        assert_eq!(nation().len(), n::WIDTH);
        assert_eq!(region().len(), r::WIDTH);
    }
}
