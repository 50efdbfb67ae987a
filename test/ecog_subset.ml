open Ldafp_core

let problem ?(seed = 7) ?(wl = 3) cols =
  let base = Datasets.Ecog_sim.generate (Stats.Rng.create seed) in
  let ds =
    Datasets.Dataset.create ~name:"ecog-subset"
      ~features:
        (Array.map (fun row -> Array.map (fun j -> row.(j)) cols)
           base.Datasets.Dataset.features)
      ~labels:base.Datasets.Dataset.labels
  in
  let fmt = Fixedpoint.Format_policy.default wl in
  (Ldafp_problem.build ~fmt (Pipeline.prepare ~fmt ds).Pipeline.scatter, fmt)
