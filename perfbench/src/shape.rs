//! Graph-shape counters: n and degree reported apart, since the
//! density-scaled fields densify as they grow.

use std::collections::BTreeMap;

use dsnet::cluster::ClusterNet;
use dsnet::graph::degree;

use crate::stats::Counters;

/// The shape of one built structure (the paper's D, d, δ, Δ and more).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Shape {
    pub nodes: usize,
    pub edges: usize,
    /// `D`: max degree of G.
    pub degree_max: usize,
    /// `d`: max degree of G(V_BT).
    pub backbone_degree_max: usize,
    /// `δ`: largest b-time-slot.
    pub delta_b: u32,
    /// `Δ`: largest l-time-slot.
    pub delta_l: u32,
    pub backbone: usize,
    pub height: u32,
}

impl Shape {
    pub fn of(net: &ClusterNet) -> Shape {
        Shape {
            nodes: net.len(),
            edges: net.graph().edge_count(),
            degree_max: degree::max_degree(net.graph()),
            backbone_degree_max: degree::induced_max_degree(net.graph(), &net.backbone_nodes()),
            delta_b: net.delta_b(),
            delta_l: net.delta_l(),
            backbone: net.backbone_tree().len(),
            height: net.height(),
        }
    }

    /// The builder's own summary, in the same terms.
    pub fn of_stats(s: &dsnet::NetworkStats) -> Shape {
        Shape {
            nodes: s.nodes,
            edges: s.edges,
            degree_max: s.max_degree,
            backbone_degree_max: s.backbone_max_degree,
            delta_b: s.delta_b,
            delta_l: s.delta_l,
            backbone: s.backbone_size,
            height: s.cnet_height,
        }
    }

    /// Fold several structures: sizes add up, extremes take the max.
    pub fn merge(self, o: Shape) -> Shape {
        Shape {
            nodes: self.nodes + o.nodes,
            edges: self.edges + o.edges,
            degree_max: self.degree_max.max(o.degree_max),
            backbone_degree_max: self.backbone_degree_max.max(o.backbone_degree_max),
            delta_b: self.delta_b.max(o.delta_b),
            delta_l: self.delta_l.max(o.delta_l),
            backbone: self.backbone + o.backbone,
            height: self.height.max(o.height),
        }
    }

    pub fn count_into(&self, c: &mut Counters) {
        let pairs = [
            ("graph.nodes", self.nodes as i64),
            ("graph.edges", self.edges as i64),
            ("graph.degree_max", self.degree_max as i64),
            ("graph.backbone_degree_max", self.backbone_degree_max as i64),
            ("cluster.delta_b", i64::from(self.delta_b)),
            ("cluster.delta_l", i64::from(self.delta_l)),
            ("cluster.backbone_nodes", self.backbone as i64),
            ("cluster.height", i64::from(self.height)),
        ];
        for (k, v) in pairs {
            c.insert(k.to_string(), v);
        }
    }
}

/// Copy the counters that are also per-layer metrics, and derive the
/// mean degree from nodes and edges.
pub fn counters_to_metrics(c: &Counters, m: &mut BTreeMap<String, f64>) {
    for (k, v) in c {
        m.insert(k.clone(), *v as f64);
    }
    let (nodes, edges) = (c.get("graph.nodes"), c.get("graph.edges"));
    if let (Some(&n), Some(&e)) = (nodes, edges) {
        if n > 0 {
            m.insert("graph.degree_mean".into(), 2.0 * e as f64 / n as f64);
        }
    }
}
