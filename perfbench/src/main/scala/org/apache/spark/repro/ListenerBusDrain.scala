package org.apache.spark.repro

import org.apache.spark.SparkContext

/** Listener events are delivered asynchronously. A traced span must see every
  * job its body ran before it reads the counters, and the only public-facing
  * way to wait for the bus is `private[spark]`, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
