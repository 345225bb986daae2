package repro.sketch

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.NumericType

/** Featurization functions AGG (Section III-B): derive the augmentation table
  * `T_aug[K_X, X]` from a candidate `T_cand[K_Z, Z]` whose keys repeat.
  */
sealed trait AggFn { def name: String }
object AggFn {
  /** First value seen per key, in row order — CSK's repeated-key handling. */
  case object First extends AggFn { val name = "FIRST" }
  case object Avg   extends AggFn { val name = "AVG"   }
  case object Count extends AggFn { val name = "COUNT" }
  /** Most frequent value; ties broken by smallest value, for determinism.
    * `-0.0` and `0.0` count as one value, `0.0`.
    */
  case object Mode  extends AggFn { val name = "MODE"  }
  case object Max   extends AggFn { val name = "MAX"   }
  case object Min   extends AggFn { val name = "MIN"   }
}

object Featurize {

  /** Normalize `df`'s (key, value) pair and aggregate it with `agg`: the
    * candidate side of every sketch and of the full join. AVG, MAX and MIN
    * need a numeric source column; the check reads only the schema.
    */
  def aggregate(df: DataFrame, key: String, value: String, agg: AggFn): DataFrame = {
    val t = df.schema(value).dataType
    require(!Seq(AggFn.Avg, AggFn.Max, AggFn.Min).contains(agg) || t.isInstanceOf[NumericType],
            s"${agg.name} needs a numeric column; $value is ${t.simpleString}")
    aggregateNorm(Sketch.normalize(df, key, value), agg)
  }

  /** Aggregate a normalized table `[k, vNum, vStr, rid]` to one row per key,
    * keeping the normalized value representation: `[k, vNum, vStr]`. This is
    * the paper's `GROUP BY K_Z, AGG(Z)`, one aggregation whatever `agg` is.
    */
  def aggregateNorm(norm: DataFrame, agg: AggFn): DataFrame = {
    val (vNum, vStr) = agg match {
      case AggFn.First => (min_by(col("vNum"), col("rid")), min_by(col("vStr"), col("rid")))
      case AggFn.Avg   => (avg("vNum"), noStr)
      case AggFn.Max   => (max("vNum"), noStr)
      case AggFn.Min   => (min("vNum"), noStr)
      case AggFn.Count => (count(lit(1)).cast("double"), noStr)
      case AggFn.Mode  =>
        // The lowest of the most frequent values. GROUP BY folds -0.0 into
        // 0.0 but `mode` would keep them apart, so fold them here.
        val zeroFolded = when(col("vNum") === 0.0, 0.0).otherwise(col("vNum"))
        (mode(zeroFolded, deterministic = true), mode(col("vStr"), deterministic = true))
    }
    norm.groupBy("k").agg(vNum as "vNum", vStr as "vStr")
  }

  private def noStr: Column = lit(null).cast("string")

  /** The paper's join-aggregation query (Section III-B): left-join the train
    * table with the aggregated candidate, producing `[ky, y, xn, xstr]`. Used by the
    * oracle tests and by full-join (non-sketched) MI estimation.
    */
  def augmentedJoin(train: DataFrame, trainKey: String, trainVal: String,
                    cand: DataFrame, candKey: String, candVal: String,
                    agg: AggFn): DataFrame = {
    val aug = aggregate(cand, candKey, candVal, agg)
      .select(col("k") as "kx", col("vNum") as "xn", col("vStr") as "xstr")
    train
      .select(train(trainKey).cast("string") as "ky", train(trainVal) as "y")
      .join(aug, col("ky") === col("kx"), "left")
      .select(col("ky"), col("y"), col("xn"), col("xstr"))
  }
}
