//! The routing decision every FIB lookup returns. The FIBs themselves —
//! 32/128-bit LPM and the name FIB — are compiled tables in `dip-routes`
//! (`RouteTables`), built from a `RouteStore`.

use crate::Port;

/// A routing decision stored in a FIB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextHop {
    /// Egress port to forward on.
    pub port: Port,
}

impl NextHop {
    /// Shorthand constructor.
    pub fn port(port: Port) -> Self {
        NextHop { port }
    }
}
